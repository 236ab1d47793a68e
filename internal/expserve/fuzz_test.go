package expserve

// Fuzz targets for the two sample frames a process parses off the network:
// the shard request (server side) and the shard reply (client side). Both
// decoders must reject anything malformed without panicking, and must size
// nothing from a header field they have not bounded against the frame.

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"marlperf/internal/expshard"
)

// wireTestRequest is a trimmed group's share of a draw to a named target
// shard: every field of the frame is non-trivial.
func wireTestRequest() shardSampleRequest {
	return shardSampleRequest{
		ShardID: "shard-1",
		Stat:    expshard.GroupStat{Rows: 90, Total: 120},
		Locals:  []int{0, 89, 17, 17, 3, 64},
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
	f.Add(valid[:shardReqHdr])
	f.Add(mutated(valid, func(b []byte) { b[13] ^= 0x41 }))                               // rows bit-flip: CRC
	f.Add(mutated(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<31) })) // oversize k
	f.Add(mutated(valid, func(b []byte) { b[28] = 255 }))                                 // a shard ID longer than the frame
	f.Add(mustEncode(f, shardSampleRequest{Stat: expshard.GroupStat{Rows: 1, Total: 1}})) // k = 0, no shard ID
	locals := shardReqHdr + len(wireTestRequest().ShardID)
	f.Add(resealed(mutated(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[locals+4:], 90) }))) // local past the window, valid CRC
	f.Add(resealed(mutated(valid, func(b []byte) { binary.LittleEndian.PutUint64(b[12:], 121) })))      // rows > total, valid CRC
	f.Add([]byte(shardReqMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeShardSampleRequest(data, nil)
		if err != nil {
			return
		}
		// Everything the decoder allocated is accounted for by bytes that
		// were actually on the wire.
		if want := shardReqSize(len(req.ShardID), len(req.Locals)); len(data) != want {
			t.Fatalf("accepted a %d-byte frame whose layout needs %d", len(data), want)
		}
		if req.Stat.Rows > req.Stat.Total {
			t.Fatalf("accepted a view stat of %d rows over %d ever appended", req.Stat.Rows, req.Stat.Total)
		}
		for _, l := range req.Locals {
			if l < 0 || uint64(l) >= req.Stat.Rows {
				t.Fatalf("accepted local row %d of a %d-row window", l, req.Stat.Rows)
			}
		}
		// An accepted request is one the encoder could have produced.
		again, err := encodeShardSampleRequest(nil, req)
		if err != nil {
			t.Fatalf("accepted a request that does not re-encode: %v", err)
		}
		if _, err := decodeShardSampleRequest(again, nil); err != nil {
			t.Fatalf("re-encoded request rejected: %v", err)
		}
	})
}

// resealed recomputes a request frame's trailing CRC after an edit.
func resealed(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32.ChecksumIEEE(frame[:len(frame)-4]))
	return frame
}

func mustEncode(f *testing.F, req shardSampleRequest) []byte {
	frame, err := encodeShardSampleRequest(nil, req)
	if err != nil {
		f.Fatal(err)
	}
	return frame
}

func FuzzDecodeShardReply(f *testing.F) {
	const k, stride, reqCRC = 3, 4, 0x5eed1234
	valid := make([]byte, shardReplySize(k, stride))
	for i := 0; i < k*stride; i++ {
		binary.LittleEndian.PutUint64(valid[shardReplyHdr+8*i:], uint64(i)<<52)
	}
	putShardReplyHeader(valid, k, stride, reqCRC)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:shardReplyHdr])
	f.Add(mutated(valid, func(b []byte) { b[9] ^= 1 }))                                   // k bit-flip: header CRC
	f.Add(mutated(valid, func(b []byte) { putShardReplyHeader(b, k+1, stride, reqCRC) })) // more rows than asked, valid CRC
	f.Add(mutated(valid, func(b []byte) { putShardReplyHeader(b, k, stride, reqCRC+1) })) // answers another request, valid CRC
	f.Add(append(append([]byte(nil), valid...), 0))                                       // a byte too many
	f.Add([]byte(shardReplyMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := decodeShardReply(data, k, stride, reqCRC)
		if err != nil {
			if rows != nil {
				t.Fatalf("rejected frame still returned %d row bytes", len(rows))
			}
			return
		}
		if len(data) != shardReplySize(k, stride) || len(rows) != 8*k*stride {
			t.Fatalf("accepted a %d-byte frame with %d row bytes as the answer to k=%d", len(data), len(rows), k)
		}
		if binary.LittleEndian.Uint32(data[16:]) != reqCRC {
			t.Fatal("accepted the answer to another request")
		}
	})
}
