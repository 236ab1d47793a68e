package expstore

import (
	"testing"

	"marlperf/internal/replay"
)

// FuzzParseSegment hammers the segment decoder with mutated images, in both
// sealed (strict) and newest-segment (torn-tolerant) modes. The decoder
// guards every recovery path, so it must never panic, never over-read, and
// any accepted prefix must satisfy the format invariants.
func FuzzParseSegment(f *testing.F) {
	spec := replay.Spec{NumAgents: 2, ObsDims: []int{3, 4}, ActDim: 2, Capacity: 16}
	layout := replay.NewRowLayout(spec)
	stride := layout.Stride()

	valid := appendSegmentHeader(nil, layout, 7, map[string]uint64{"a": 3, "bb": 9})
	for seq := uint64(7); seq < 12; seq += 2 {
		rows := append(rowForSeq(layout, seq), rowForSeq(layout, seq+1)...)
		valid = append(valid, byte(seq), 0, 0, 0, 0, 0, 0, 0)
		valid = EncodeAppend(valid, Batch{ActorID: "a", BatchSeq: 4 + seq, Rows: rows, N: 2}, stride)
	}
	f.Add(valid, true)
	f.Add(valid, false)
	f.Add([]byte{}, true)
	f.Add([]byte("MXPK"), true)
	f.Add(append([]byte(nil), valid[:len(valid)/2]...), true)  // torn mid-record
	f.Add(append([]byte(nil), valid[:len(valid)/2]...), false) // same, sealed
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)-10] ^= 0x04 // damage the last record
	f.Add(mutated, true)
	mutated2 := append([]byte(nil), valid...)
	mutated2[10] ^= 0xFF // damage the header
	f.Add(mutated2, false)

	f.Fuzz(func(t *testing.T, data []byte, tornOK bool) {
		seg, err := parseSegment(data, layout, tornOK)
		if err != nil {
			return
		}
		if seg.goodOff > len(data) || seg.goodOff < 4 {
			t.Fatalf("goodOff %d outside [4,%d]", seg.goodOff, len(data))
		}
		if !tornOK && seg.goodOff != len(data) {
			t.Fatalf("sealed parse accepted a torn tail: goodOff %d of %d", seg.goodOff, len(data))
		}
		rows := 0
		for _, b := range seg.batches {
			if len(b.Rows) != b.N*stride {
				t.Fatalf("batch of %d rows carries %d floats (stride %d)", b.N, len(b.Rows), stride)
			}
			rows += b.N
		}
		if rows != seg.rows {
			t.Fatalf("batches hold %d rows, segment counts %d", rows, seg.rows)
		}
	})
}
