package replay

import (
	"encoding/binary"
	"strings"
	"testing"

	"marlperf/internal/frame"
)

// inOrder gathers every row st holds, oldest first.
func inOrder(st Store) []*AgentBatch {
	r := st.slots()
	idx := make([]int, r.length)
	for k := range idx {
		idx[k] = (r.oldest() + k) % r.spec.Capacity
	}
	dst := batchesFor(r.spec, len(idx))
	st.GatherAll(idx, dst)
	return dst
}

// sameRows fails t unless got and want hold the same rows in the same order.
func sameRows(t *testing.T, got, want Store) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%d rows, want %d", got.Len(), want.Len())
	}
	g, w := inOrder(got), inOrder(want)
	for a := range w {
		for _, m := range [][2][]float64{{g[a].Obs.Data, w[a].Obs.Data}, {g[a].Act.Data, w[a].Act.Data},
			{g[a].Rew.Data, w[a].Rew.Data}, {g[a].NextObs.Data, w[a].NextObs.Data}, {g[a].Done.Data, w[a].Done.Data}} {
			if !equalFloats(m[0], m[1]) {
				t.Fatalf("agent %d rows differ", a)
			}
		}
	}
}

// restored reads data as a section of spec and adds its rows to a fresh
// store of that spec, of the key-value layout if kv is set.
func restored(t *testing.T, data []byte, spec Spec, kv bool) Store {
	t.Helper()
	sec, err := ReadSection(data, spec)
	if err != nil {
		t.Fatal(err)
	}
	var st Store = NewBuffer(spec)
	if kv {
		st = NewKVBuffer(spec)
	}
	sec.AddTo(st)
	return st
}

func TestBufferRoundTrip(t *testing.T) {
	b := NewBuffer(testSpec(32))
	fillBuffer(b, 20)
	// A section appended after other bytes seals only its own.
	data := AppendSection([]byte("xx"), b)[2:]
	back := restored(t, data, b.Spec(), false)
	if back.Len() != 20 || back.Spec().Capacity != 32 {
		t.Fatalf("restored Len=%d Cap=%d", back.Len(), back.Spec().Capacity)
	}
	sameRows(t, back, b)
}

// The rows of a wrapped ring come back oldest first, so the restored ring
// continues as the original does: the next add evicts the oldest row.
func TestBufferRoundTripContinuesRing(t *testing.T) {
	b := NewBuffer(testSpec(4))
	fillBuffer(b, 6) // wrapped: next == 2
	back := restored(t, AppendSection(nil, b), b.Spec(), false)
	sameRows(t, back, b)
	more := NewBuffer(testSpec(4))
	fillBuffer(more, 7)
	row := inOrder(more)
	for _, st := range []Store{b, back} {
		obs, act, nxt := make([][]float64, 3), make([][]float64, 3), make([][]float64, 3)
		rew, done := make([]float64, 3), make([]float64, 3)
		for a, r := range row {
			obs[a], act[a], nxt[a] = r.Obs.Row(3), r.Act.Row(3), r.NextObs.Row(3)
			rew[a], done[a] = r.Rew.Data[3], r.Done.Data[3]
		}
		st.Add(obs, act, rew, nxt, done)
	}
	sameRows(t, back, b)
	sameRows(t, back, more)
}

// Both layouts write one section for the same rows, byte for byte, and
// either restores into the other.
func TestSectionSameAcrossLayouts(t *testing.T) {
	for _, fill := range []int{0, 5, 8, 19} { // empty, partial, full, wrapped
		spec := testSpec(8)
		b, k := NewBuffer(spec), NewKVBuffer(spec)
		fillBuffer(b, fill)
		fillBuffer(k, fill)
		plain, kv := AppendSection(nil, b), AppendSection(nil, k)
		if string(plain) != string(kv) {
			t.Fatalf("fill %d: the key-value table writes another section than the buffer", fill)
		}
		sameRows(t, restored(t, kv, spec, false), b)
		sameRows(t, restored(t, plain, spec, true), k)
	}
}

// ReadSection is a view: a restore reads the section where it lies.
func TestReadSectionCopiesNothing(t *testing.T) {
	b := NewBuffer(testSpec(64))
	fillBuffer(b, 64)
	data := AppendSection(nil, b)
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := ReadSection(data, b.Spec()); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ReadSection allocates %v times, want 0", allocs)
	}
}

func TestReadBufferRejectsGarbage(t *testing.T) {
	if _, err := ReadSection([]byte("garbage data here"), testSpec(8)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadBufferRejectsTruncated(t *testing.T) {
	b := NewBuffer(testSpec(8))
	fillBuffer(b, 5)
	data := AppendSection(nil, b)
	for _, cut := range []int{2, 8, 20, len(data) / 2} {
		if _, err := ReadSection(data[:cut], b.Spec()); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// Sealed, so that the header reaches the shape check instead of failing at
// the checksum.
func TestReadBufferRejectsImplausibleHeader(t *testing.T) {
	hdr := frame.AppendHeader(nil, bufMagic, bufVersion)
	for _, v := range []uint32{1 << 20, 5, 100} { // absurd agent count
		hdr = binary.LittleEndian.AppendUint32(hdr, v)
	}
	_, err := ReadSection(frame.Seal(hdr, 0), testSpec(100))
	if err == nil || !strings.Contains(err.Error(), "does not fit the store") {
		t.Fatalf("implausible header: err = %v, want the shape check", err)
	}
}

func TestReadBufferRejectsBadVersion(t *testing.T) {
	if _, err := ReadSection(frame.AppendHeader(nil, bufMagic, 99), testSpec(8)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func FuzzReadBuffer(f *testing.F) {
	spec := testSpec(8)
	b := NewBuffer(spec)
	fillBuffer(b, 5)
	valid := AppendSection(nil, b)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("MARB"))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...)) // truncated mid-payload
	mutated := append([]byte(nil), valid...)
	mutated[10] ^= 0xAA
	f.Add(mutated)
	// A header demanding a huge allocation (giant capacity) must be
	// refused by the shape check, not attempted. Sealed, so that it
	// reaches it.
	hdrLen := 4 * (7 + spec.NumAgents)
	huge := append([]byte(nil), valid[:hdrLen]...)
	binary.LittleEndian.PutUint32(huge[16:], 1<<27)
	huge = frame.Seal(huge, 0)
	f.Add(huge)
	if _, err := ReadSection(huge, spec); err == nil || !strings.Contains(err.Error(), "does not fit the store") {
		f.Fatalf("the huge-capacity seed does not reach the shape check: %v", err)
	}
	// A header declaring more rows than the bytes hold. Sealed too.
	long := append([]byte(nil), valid[:len(valid)-4]...)
	binary.LittleEndian.PutUint32(long[hdrLen-8:], 7)
	long = frame.Seal(long, 0)
	f.Add(long)
	if _, err := ReadSection(long, spec); err == nil || !strings.Contains(err.Error(), "the header declares") {
		f.Fatalf("the long seed does not reach the byte count: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sec, err := ReadSection(data, spec)
		if err != nil {
			return
		}
		st := NewBuffer(spec)
		sec.AddTo(st)
		sameRows(t, restored(t, AppendSection(nil, st), spec, true), st)
	})
}
