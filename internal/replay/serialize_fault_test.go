package replay

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"marlperf/internal/faultnet"
)

// Fault-injection coverage for the v2 MARB format: bit flips anywhere in
// the section, truncation, and the refusal of legacy v1 (trailer-less)
// sections.

func bufferBytes(t *testing.T) []byte {
	t.Helper()
	b := NewBuffer(testSpec(8))
	fillBuffer(b, 6)
	return AppendSection(nil, b)
}

func TestReadBufferRejectsEveryBitFlip(t *testing.T) {
	data := bufferBytes(t)
	for off := 0; off < len(data); off++ {
		flipped, err := io.ReadAll(&faultnet.BitFlipReader{R: bytes.NewReader(data), Offset: int64(off), Mask: 0x08})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSection(flipped, testSpec(8)); err == nil {
			t.Fatalf("bit flip at offset %d/%d accepted", off, len(data))
		}
	}
}

// A v1 section — trailer-less, once read unverified — is refused with a
// version error.
func TestReadBufferRejectsV1(t *testing.T) {
	data := bufferBytes(t)
	// A v1 section is the v2 section with the version field rewound and
	// the CRC trailer stripped.
	v1 := append([]byte(nil), data[:len(data)-4]...)
	v1[4] = 1
	if _, err := ReadSection(v1, testSpec(8)); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 buffer: err = %v, want a version error", err)
	}
}

func TestReadBufferRejectsTruncatedEverywhere(t *testing.T) {
	data := bufferBytes(t)
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := ReadSection(data[:cut], testSpec(8)); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
	}
	if _, err := ReadSection(data[:len(data)-1], testSpec(8)); err == nil {
		t.Fatal("truncation of trailer accepted")
	}
}
