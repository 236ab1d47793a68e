package resilience

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"marlperf/internal/faultnet"
)

func sampleSections() []Section {
	return []Section{
		{Kind: SectionTrainer, Payload: bytes.Repeat([]byte{0xAB, 0x12, 0x00, 0x7F}, 64)},
		{Kind: SectionReplay, Payload: bytes.Repeat([]byte{0x01, 0xFF}, 257)},
		{Kind: SectionRunState, Payload: []byte("seed=42")},
	}
}

func encodeSnapshot(t *testing.T, sections []Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sections); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSections()
	data := encodeSnapshot(t, want)
	snap, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Sections) != len(want) {
		t.Fatalf("got %d sections, want %d", len(snap.Sections), len(want))
	}
	for i, sec := range snap.Sections {
		if sec.Kind != want[i].Kind || !bytes.Equal(sec.Payload, want[i].Payload) {
			t.Fatalf("section %d differs", i)
		}
	}
	if got, ok := snap.Section(SectionRunState); !ok || string(got) != "seed=42" {
		t.Fatalf("Section(run-state) = %q, %v", got, ok)
	}
	if _, ok := snap.Section(SectionKind(99)); ok {
		t.Fatal("unknown section kind should be absent")
	}
}

func TestSnapshotEmptySections(t *testing.T) {
	data := encodeSnapshot(t, nil)
	snap, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Sections) != 0 {
		t.Fatalf("got %d sections, want 0", len(snap.Sections))
	}
}

func TestSnapshotRejectsEveryTruncation(t *testing.T) {
	data := encodeSnapshot(t, sampleSections())
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadSnapshot(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(data))
		}
	}
}

func TestSnapshotRejectsEveryBitFlip(t *testing.T) {
	data := encodeSnapshot(t, sampleSections())
	for off := 0; off < len(data); off++ {
		r := &faultnet.BitFlipReader{R: bytes.NewReader(data), Offset: int64(off), Mask: 0x40}
		if _, err := ReadSnapshot(r); err == nil {
			t.Fatalf("bit flip at offset %d accepted", off)
		}
	}
}

func TestSnapshotRejectsBadMagicAndVersion(t *testing.T) {
	data := encodeSnapshot(t, sampleSections())
	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}
	bad = append([]byte(nil), data...)
	bad[4] = 0x7F // version field
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: %v", err)
	}
}

func TestSnapshotErrorNamesDamagedSection(t *testing.T) {
	data := encodeSnapshot(t, sampleSections())
	// Flip a byte inside the replay payload: section framing is
	// 4 magic + 4 version + 4 count, then per section 4 kind + 8 len +
	// payload + 4 crc. Section 0 payload is 256 bytes.
	off := 12 + (12 + 256 + 4) + 12 + 5
	r := &faultnet.BitFlipReader{R: bytes.NewReader(data), Offset: int64(off), Mask: 0x01}
	_, err := ReadSnapshot(r)
	if err == nil || !strings.Contains(err.Error(), "replay") {
		t.Fatalf("error should name the replay section, got: %v", err)
	}
}

func TestSnapshotWriteFaults(t *testing.T) {
	sections := sampleSections()
	full := int64(len(encodeSnapshot(t, sections)))
	for _, short := range []bool{false, true} {
		for _, allow := range []int64{0, 3, 17, full - 1} {
			fw := &faultnet.FaultWriter{W: io.Discard, Remaining: allow, Short: short}
			if err := WriteSnapshot(fw, sections); err == nil {
				t.Fatalf("write fault (allow=%d short=%v) not propagated", allow, short)
			}
		}
	}
}
