package serve

import (
	"encoding/hex"
	"testing"
)

// TestGoldenWireFrames pins the MACT reply the parent of the frame codec
// encoded from fixed inputs, byte for byte, and decodes it back.
func TestGoldenWireFrames(t *testing.T) {
	const want = "4d414354050403020100000003000000020000000000000004000000"
	frame := EncodeActReply(nil, 0x0102030405, []int{2, 0, 4})
	if got := hex.EncodeToString(frame); got != want {
		t.Fatalf("MACT reply\n got %s\nwant %s", got, want)
	}
	version, actions, err := DecodeActReply(frame)
	if err != nil || version != 0x0102030405 || len(actions) != 3 || actions[0] != 2 || actions[1] != 0 || actions[2] != 4 {
		t.Fatalf("decoded version %#x actions %v err %v", version, actions, err)
	}
}
