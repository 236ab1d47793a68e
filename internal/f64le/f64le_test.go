package f64le

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

func refBytes(f []float64) []byte {
	out := make([]byte, 8*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

func testVals() []float64 {
	return []float64{0, 1, -1, math.Pi, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Copysign(0, -1)}
}

func TestPutMatchesPortableEncoding(t *testing.T) {
	f := testVals()
	dst := make([]byte, 8*len(f))
	Put(dst, f)
	want := refBytes(f)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("byte %d: Put wrote %#x, portable encoding %#x", i, dst[i], want[i])
		}
	}
}

func TestGetRoundTripsBitExactly(t *testing.T) {
	f := testVals()
	enc := refBytes(f)
	got := make([]float64, len(f))
	Get(got, enc)
	for i := range f {
		if math.Float64bits(got[i]) != math.Float64bits(f[i]) {
			t.Fatalf("element %d: round trip %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(f[i]))
		}
	}
}

func TestFloatsViewAliasesOrNil(t *testing.T) {
	f := testVals()
	enc := refBytes(f)
	if v := Floats(enc); v != nil {
		for i := range f {
			if math.Float64bits(v[i]) != math.Float64bits(f[i]) {
				t.Fatalf("view element %d: %x, want %x", i, math.Float64bits(v[i]), math.Float64bits(f[i]))
			}
		}
	}
	// A misaligned or odd-length buffer must never yield a view.
	if v := Floats(enc[1:9]); v != nil {
		t.Fatal("misaligned buffer produced a reinterpreting view")
	}
	if v := Floats(enc[:7]); v != nil {
		t.Fatal("non-multiple-of-8 buffer produced a reinterpreting view")
	}
}

func TestEmptySlices(t *testing.T) {
	Put(nil, nil)
	Get(nil, nil)
	if Native {
		if b := Bytes([]float64{}); b == nil {
			t.Fatal("empty Bytes view is nil on a little-endian host")
		}
		if f := Floats([]byte{}); f == nil {
			t.Fatal("empty Floats view is nil on a little-endian host")
		}
	}
}

// forcePortable makes every function take its per-element fallback — the
// path a big-endian host would run — for the length of one test.
func forcePortable(t *testing.T) {
	t.Helper()
	was := Native
	Native = false
	t.Cleanup(func() { Native = was })
}

func sameBits(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("element %d: %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// The portable loops are the only per-element float codec left in the
// program; they must produce the bytes the memmove paths produce.
func TestPortableFallbackMatchesNative(t *testing.T) {
	f := testVals()
	want := refBytes(f)
	forcePortable(t)
	if Bytes(f) != nil || Floats(want) != nil {
		t.Fatal("a view was handed out with Native off")
	}
	dst := make([]byte, len(want))
	Put(dst, f)
	if !bytes.Equal(dst, want) {
		t.Fatal("portable Put differs from the reference encoding")
	}
	got := make([]float64, len(f))
	Get(got, want)
	sameBits(t, got, f)

}

// View aliases src when a view is legal and decodes into the caller's
// scratch — reusing it, growing it once — when it is not.
func TestViewAliasesOrDecodesIntoScratch(t *testing.T) {
	f := testVals()
	arena := make([]byte, 8*len(f)+8)
	var scratch []float64
	for shift := 0; shift < 8; shift++ {
		src := arena[shift : shift+8*len(f)]
		copy(src, refBytes(f))
		got := View(src, &scratch)
		sameBits(t, got, f)
		aliased := len(got) > 0 && unsafe.Pointer(unsafe.SliceData(got)) == unsafe.Pointer(unsafe.SliceData(src))
		if want := Native && aligned8(src); aliased != want {
			t.Fatalf("shift %d: view aliases src = %v, want %v", shift, aliased, want)
		}
		if !aliased && unsafe.SliceData(got) != unsafe.SliceData(scratch) {
			t.Fatalf("shift %d: decoded floats are not in the caller's scratch", shift)
		}
	}
	before := unsafe.SliceData(scratch)
	View(arena[1:1+8*len(f)], &scratch)
	if unsafe.SliceData(scratch) != before {
		t.Fatal("a scratch that was large enough was replaced")
	}
}

func TestAppendExtendsDst(t *testing.T) {
	f := testVals()
	prefix := []byte("hdr")
	got := Append(append([]byte(nil), prefix...), f)
	if want := append(prefix, refBytes(f)...); !bytes.Equal(got, want) {
		t.Fatal("Append did not produce prefix + reference encoding")
	}
	roomy := make([]byte, 3, 3+8*len(f))
	if out := Append(roomy, f); unsafe.SliceData(out) != unsafe.SliceData(roomy) {
		t.Fatal("Append reallocated a dst that had room")
	}
}
