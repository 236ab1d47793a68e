package policysync

import (
	"hash/crc32"
	"math/rand"
	"testing"

	"marlperf/internal/nn"
)

// TestGoldenWireFrames pins the MPOL frame the parent of the frame codec
// encoded from fixed inputs: its length and the CRC of its body, trailer
// excluded (the CRC of a stream that ends in its own CRC is one constant).
func TestGoldenWireFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nets := []*nn.Network{nn.NewMLP(rng, 3, 4, 2), nn.NewMLP(rng, 5, 4, 2)}
	frame, err := EncodeSnapshot(nil, 42, nets)
	if err != nil {
		t.Fatal(err)
	}
	const wantLen, wantCRC = 566, 0x48dc24c7
	if got := crc32.ChecksumIEEE(frame[:len(frame)-4]); len(frame) != wantLen || got != wantCRC {
		t.Fatalf("MPOL frame is %d bytes, body CRC %#08x; the parent wrote %d, %#08x", len(frame), got, wantLen, wantCRC)
	}
	snap, err := DecodeSnapshot(frame)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeSnapshot(nil, snap.Updates, snap.Agents)
	if err != nil || string(again) != string(frame) {
		t.Fatalf("the decoded MPOL frame re-encodes to other bytes (err %v)", err)
	}
}
