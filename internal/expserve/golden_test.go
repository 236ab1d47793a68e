package expserve

import (
	"encoding/hex"
	"math"
	"testing"

	"marlperf/internal/f64le"
)

// TestGoldenWireFrames pins the MXHQ request and MXHR reply the parent of
// the frame codec encoded from fixed inputs, byte for byte, and decodes
// both back.
func TestGoldenWireFrames(t *testing.T) {
	req := wireTestRequest()
	t.Run("MXHQ", func(t *testing.T) {
		const want = "4d58485102000000060000005a0000000000000078000000000000000700000073686172642d31000000005900000011000000110000000300000040000000467ac812"
		frame, err := encodeShardSampleRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(frame); got != want {
			t.Fatalf("MXHQ request\n got %s\nwant %s", got, want)
		}
		back, err := decodeShardSampleRequest(frame, nil)
		if err != nil || back.ShardID != req.ShardID || back.Stat != req.Stat || len(back.Locals) != len(req.Locals) {
			t.Fatalf("decoded %+v, err %v", back, err)
		}
		for i, l := range req.Locals {
			if back.Locals[i] != l {
				t.Fatalf("local %d decoded as %d, want %d", i, back.Locals[i], l)
			}
		}
	})
	t.Run("MXHR", func(t *testing.T) {
		const want = "4d584852020000000200000003000000efcdab8977f388c3000000000000e03f000000000000f0bf182d4454fb21094059f3f8c21f6ea501000000000000f07f0000000000001c40"
		const k, stride, reqCRC = 2, 3, 0x89abcdef
		rows := []float64{0.5, -1, math.Pi, 1e-300, math.Inf(1), 7}
		frame := make([]byte, shardReplySize(k, stride))
		putShardReplyHeader(frame, k, stride, reqCRC)
		f64le.Put(frame[shardReplyHdr:], rows)
		if got := hex.EncodeToString(frame); got != want {
			t.Fatalf("MXHR reply\n got %s\nwant %s", got, want)
		}
		payload, err := decodeShardReply(frame, k, stride, reqCRC)
		if err != nil {
			t.Fatal(err)
		}
		back := make([]float64, len(rows))
		f64le.Get(back, payload)
		for i := range rows {
			if math.Float64bits(back[i]) != math.Float64bits(rows[i]) {
				t.Fatalf("row value %d decoded as %v, want %v", i, back[i], rows[i])
			}
		}
	})
}
