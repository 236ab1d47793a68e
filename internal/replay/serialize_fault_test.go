package replay

import (
	"bytes"
	"strings"
	"testing"

	"marlperf/internal/resilience"
)

// Fault-injection coverage for the v2 MARB format: bit flips anywhere in
// the stream, short writes, and the refusal of legacy v1 (trailer-less)
// streams.

func bufferBytes(t *testing.T) []byte {
	t.Helper()
	b := NewBuffer(testSpec(8))
	fillBuffer(b, 6)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadBufferRejectsEveryBitFlip(t *testing.T) {
	data := bufferBytes(t)
	for off := 0; off < len(data); off++ {
		r := &resilience.BitFlipReader{R: bytes.NewReader(data), Offset: int64(off), Mask: 0x08}
		if _, err := ReadBuffer(r); err == nil {
			t.Fatalf("bit flip at offset %d/%d accepted", off, len(data))
		}
	}
}

func TestWriteToPropagatesShortWrites(t *testing.T) {
	b := NewBuffer(testSpec(8))
	fillBuffer(b, 6)
	full := int64(len(bufferBytes(t)))
	for _, allow := range []int64{0, 5, 30, full / 2, full - 1} {
		fw := &resilience.FaultWriter{W: &bytes.Buffer{}, Remaining: allow, Short: true}
		if _, err := b.WriteTo(fw); err == nil {
			t.Fatalf("short write after %d bytes not reported", allow)
		}
	}
}

// A v1 stream — trailer-less, once read unverified — is refused with a
// version error as soon as its header is read: no storage is allocated and
// no payload consumed.
func TestReadBufferRejectsV1(t *testing.T) {
	data := bufferBytes(t)
	// A v1 stream is the v2 stream with the version field rewound and the
	// CRC trailer stripped.
	v1 := append([]byte(nil), data[:len(data)-4]...)
	v1[4] = 1
	r := bytes.NewReader(v1)
	_, err := ReadBuffer(r)
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 buffer: err = %v, want a version error", err)
	}
	if read := len(v1) - r.Len(); read > 8 {
		t.Fatalf("v1 buffer: %d bytes consumed before the version error, want at most magic and version", read)
	}
}

func TestReadBufferRejectsTruncatedEverywhere(t *testing.T) {
	data := bufferBytes(t)
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := ReadBuffer(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
	}
	if _, err := ReadBuffer(bytes.NewReader(data[:len(data)-1])); err == nil {
		t.Fatal("truncation of trailer accepted")
	}
}
