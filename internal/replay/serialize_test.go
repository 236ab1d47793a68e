package replay

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"marlperf/internal/frame"
)

func TestBufferRoundTrip(t *testing.T) {
	b := NewBuffer(testSpec(32))
	fillBuffer(b, 20)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadBuffer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 20 || restored.Capacity() != 32 {
		t.Fatalf("restored Len=%d Cap=%d", restored.Len(), restored.Capacity())
	}
	// Gathers must produce identical batches.
	indices := []int{0, 7, 19}
	spec := b.Spec()
	for a := 0; a < spec.NumAgents; a++ {
		want := NewAgentBatch(3, spec.ObsDims[a], spec.ActDim)
		got := NewAgentBatch(3, spec.ObsDims[a], spec.ActDim)
		b.Gather(a, indices, want)
		restored.Gather(a, indices, got)
		for i := range want.Obs.Data {
			if want.Obs.Data[i] != got.Obs.Data[i] {
				t.Fatalf("agent %d obs differs after round-trip", a)
			}
		}
		for i := range want.Rew.Data {
			if want.Rew.Data[i] != got.Rew.Data[i] || want.Done.Data[i] != got.Done.Data[i] {
				t.Fatalf("agent %d scalars differ after round-trip", a)
			}
		}
	}
}

func TestBufferRoundTripContinuesRing(t *testing.T) {
	b := NewBuffer(testSpec(4))
	fillBuffer(b, 6) // wrapped: next == 2
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadBuffer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The next Add must land where the original would have (slot 2).
	var seen []int
	restored.AddListener(func(idx int) { seen = append(seen, idx) })
	fillBuffer(restored, 1)
	if len(seen) != 1 || seen[0] != 2 {
		t.Fatalf("restored ring cursor wrong: adds landed at %v, want [2]", seen)
	}
}

func TestReadBufferRejectsGarbage(t *testing.T) {
	if _, err := ReadBuffer(strings.NewReader("garbage data here")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadBufferRejectsTruncated(t *testing.T) {
	b := NewBuffer(testSpec(8))
	fillBuffer(b, 5)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{2, 8, 20, len(data) / 2} {
		if _, err := ReadBuffer(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// Sealed, so that the header reaches the plausibility bound instead of
// failing at the checksum.
func TestReadBufferRejectsImplausibleHeader(t *testing.T) {
	hdr := frame.AppendHeader(nil, bufMagic, bufVersion)
	for _, v := range []uint32{1 << 20, 5, 100} { // absurd agent count
		hdr = binary.LittleEndian.AppendUint32(hdr, v)
	}
	_, err := ReadBuffer(bytes.NewReader(frame.Seal(hdr, 0)))
	if err == nil || !strings.Contains(err.Error(), "implausible buffer header") {
		t.Fatalf("implausible header: err = %v, want the plausibility bound", err)
	}
}

func TestReadBufferRejectsBadVersion(t *testing.T) {
	if _, err := ReadBuffer(bytes.NewReader(frame.AppendHeader(nil, bufMagic, 99))); err == nil {
		t.Fatal("bad version accepted")
	}
}

func FuzzReadBuffer(f *testing.F) {
	b := NewBuffer(testSpec(8))
	fillBuffer(b, 5)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("MARB"))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...)) // truncated mid-payload
	mutated := append([]byte(nil), valid...)
	mutated[10] ^= 0xAA
	f.Add(mutated)
	// A header demanding a huge allocation (giant capacity) must be
	// rejected by the plausibility bounds, not attempted. Sealed, so that
	// it reaches them.
	huge := append([]byte(nil), valid[:28+4*b.Spec().NumAgents]...)
	binary.LittleEndian.PutUint32(huge[16:], 1<<27)
	huge = frame.Seal(huge, 0)
	f.Add(huge)
	if _, err := ReadBuffer(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "implausible buffer storage") {
		f.Fatalf("the huge-capacity seed does not reach the storage bound: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := ReadBuffer(bytes.NewReader(data))
		if err != nil {
			return
		}
		if restored.Len() > restored.Capacity() {
			t.Fatal("parsed buffer violates invariants")
		}
	})
}
