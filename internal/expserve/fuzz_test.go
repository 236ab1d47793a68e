package expserve

// Fuzz targets for the two sample frames a process parses off the network:
// the shard request (server side) and the shard reply (client side). Both
// decoders must reject anything malformed without panicking, and must size
// nothing from a header field they have not bounded against the frame.

import (
	"encoding/binary"
	"testing"

	"marlperf/internal/expshard"
	"marlperf/internal/replay"
)

// wireTestRequest is a three-group request with a dead group, a trimmed
// group and a named target shard: every field of the frame is non-trivial.
func wireTestRequest() shardSampleRequest {
	part2group := make([]int, 64)
	for i := range part2group {
		part2group[i] = i % 3
	}
	return shardSampleRequest{
		N:          32,
		Seed:       -12345,
		Plan:       replay.SamplePlan{Strategy: replay.PlanLocality, Neighbors: 8, Refs: 4},
		ShardID:    "shard-1",
		MyGroup:    1,
		Partitions: 64,
		Part2Group: part2group,
		Stats: []expshard.GroupStat{
			{Rows: 100, Total: 100, Live: true},
			{Rows: 90, Total: 120, Live: true},
			{Rows: 0, Total: 0, Live: false},
		},
	}
}

// mutated returns a copy of frame with edit applied.
func mutated(frame []byte, edit func([]byte)) []byte {
	out := append([]byte(nil), frame...)
	edit(out)
	return out
}

func FuzzDecodeShardSampleRequest(f *testing.F) {
	valid, err := encodeShardSampleRequest(nil, wireTestRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:48])
	f.Add(mutated(valid, func(b []byte) { b[13] ^= 0x41 }))                                // seed bit-flip: CRC
	f.Add(mutated(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[32:], 1<<31) })) // oversize partitions
	f.Add(mutated(valid, func(b []byte) { b[44] = 0 }))                                    // no groups
	f.Add(mutated(valid, func(b []byte) { b[44] = 255 }))                                  // more groups than the frame holds
	f.Add(mutated(valid, func(b []byte) { b[45] = 3 }))                                    // myGroup outside groups
	f.Add([]byte(shardReqMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeShardSampleRequest(data)
		if err != nil {
			return
		}
		// Everything the decoder allocated is accounted for by bytes that
		// were actually on the wire.
		if want := shardReqSize(len(req.ShardID), req.Partitions, len(req.Stats)); len(data) != want {
			t.Fatalf("accepted a %d-byte frame whose layout needs %d", len(data), want)
		}
		if len(req.Part2Group) != req.Partitions || req.Partitions > expshard.MaxPartitions {
			t.Fatalf("accepted %d partitions with a %d-entry map", req.Partitions, len(req.Part2Group))
		}
		if req.MyGroup < 0 || req.MyGroup >= len(req.Stats) {
			t.Fatalf("accepted myGroup %d of %d groups", req.MyGroup, len(req.Stats))
		}
		for p, g := range req.Part2Group {
			if g < 0 || g >= len(req.Stats) {
				t.Fatalf("accepted partition %d -> group %d of %d", p, g, len(req.Stats))
			}
		}
		// An accepted request is one the encoder could have produced.
		again, err := encodeShardSampleRequest(nil, req)
		if err != nil {
			t.Fatalf("accepted a request that does not re-encode: %v", err)
		}
		if _, err := decodeShardSampleRequest(again); err != nil {
			t.Fatalf("re-encoded request rejected: %v", err)
		}
	})
}

func FuzzDecodeShardReply(f *testing.F) {
	const n, stride, k = 5, 4, 3
	valid := make([]byte, shardReplySize(k, stride))
	for i := 0; i < k*stride; i++ {
		binary.LittleEndian.PutUint64(valid[shardReplyHdr+8*i:], uint64(i)<<52)
	}
	putShardReplyHeader(valid, k, stride, n)
	putShardReplySlots(valid, k, stride, []int32{4, 0, 2})
	slotOff := shardReplyHdr + 8*k*stride
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:shardReplyHdr])
	f.Add(mutated(valid, func(b []byte) { b[9] ^= 1 }))                                          // k bit-flip: header CRC
	f.Add(mutated(valid, func(b []byte) { putShardReplyHeader(b, n+1, stride, n) }))             // oversize k, valid CRC
	f.Add(mutated(valid, func(b []byte) { b[slotOff] ^= 1 }))                                    // slot bit-flip: slot CRC
	f.Add(mutated(valid, func(b []byte) { putShardReplySlots(b, k, stride, []int32{4, 0, n}) })) // slot outside the draw, valid CRC
	f.Add([]byte(shardReplyMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		slots := make([]int32, n)
		got, rows, err := decodeShardReply(data, n, stride, slots)
		if err != nil {
			if got != 0 || rows != nil {
				t.Fatalf("rejected frame still returned k=%d and %d row bytes", got, len(rows))
			}
			return
		}
		if got < 0 || got > n || len(data) != shardReplySize(got, stride) || len(rows) != 8*got*stride {
			t.Fatalf("accepted a %d-byte frame as k=%d with %d row bytes", len(data), got, len(rows))
		}
		for _, s := range slots[:got] {
			if s < 0 || int(s) >= n {
				t.Fatalf("accepted slot %d outside a draw of %d", s, n)
			}
		}
	})
}
