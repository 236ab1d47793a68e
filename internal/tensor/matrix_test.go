package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromSliceAndAtSet(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if got := m.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %v, want 6", got)
	}
	m.Set(0, 1, 42)
	if got := m.At(0, 1); got != 42 {
		t.Fatalf("after Set, At(0,1) = %v, want 42", got)
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestRowIsView(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	r := m.Row(1)
	r[0] = 99
	if m.At(1, 0) != 99 {
		t.Fatal("Row should share storage with the matrix")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone should not share storage")
	}
}

func TestCopyFrom(t *testing.T) {
	src := FromSlice(2, 2, []float64{1, 2, 3, 4})
	dst := New(2, 2)
	dst.CopyFrom(src)
	if !ApproxEqual(dst, src, 0) {
		t.Fatalf("CopyFrom: got %v", dst.Data)
	}
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with mismatched shape did not panic")
		}
	}()
	New(2, 2).CopyFrom(New(3, 2))
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(New(2, 2), a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !ApproxEqual(got, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 4)
	a.RandNormal(rng, 0, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	got := MatMul(New(4, 4), a, id)
	if !ApproxEqual(got, a, 1e-12) {
		t.Fatal("A × I should equal A")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with inner mismatch did not panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2))
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(5, 3)
	a.RandNormal(rng, 0, 1)
	b := New(5, 4)
	b.RandNormal(rng, 0, 1)

	// Explicit transpose of a.
	at := New(3, 5)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := MatMul(New(3, 4), at, b)
	got := MatMulTransA(New(3, 4), a, b)
	if !ApproxEqual(got, want, 1e-12) {
		t.Fatalf("MatMulTransA mismatch: got %v want %v", got.Data, want.Data)
	}
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(4, 3)
	a.RandNormal(rng, 0, 1)
	b := New(5, 3)
	b.RandNormal(rng, 0, 1)

	bt := New(3, 5)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	want := MatMul(New(4, 5), a, bt)
	got := MatMulTransB(New(4, 5), a, b)
	if !ApproxEqual(got, want, 1e-12) {
		t.Fatalf("MatMulTransB mismatch: got %v want %v", got.Data, want.Data)
	}
}

func TestAddSub(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{10, 20, 30})
	sum := Add(New(1, 3), a, b)
	if !ApproxEqual(sum, FromSlice(1, 3, []float64{11, 22, 33}), 0) {
		t.Fatalf("Add = %v", sum.Data)
	}
	a.Scale(-1)
	if got := Add(New(1, 3), sum, a); !ApproxEqual(got, b, 0) {
		t.Fatalf("Add of the negation = %v, want %v", got.Data, b.Data)
	}
}

func TestAddAliasesDst(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(1, 2, []float64{3, 4})
	Add(a, a, b)
	if !ApproxEqual(a, FromSlice(1, 2, []float64{4, 6}), 0) {
		t.Fatalf("aliased Add = %v", a.Data)
	}
}

func TestScaleAddScaled(t *testing.T) {
	m := FromSlice(1, 3, []float64{1, 2, 3})
	m.Scale(2)
	if !ApproxEqual(m, FromSlice(1, 3, []float64{2, 4, 6}), 0) {
		t.Fatalf("Scale = %v", m.Data)
	}
	ones := FromSlice(1, 3, []float64{1, 1, 1})
	ones.Scale(0.5)
	Add(m, m, ones)
	if !ApproxEqual(m, FromSlice(1, 3, []float64{2.5, 4.5, 6.5}), 0) {
		t.Fatalf("Add of a scaled matrix = %v", m.Data)
	}
}

func TestSumRows(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := m.SumRows(nil)
	want := []float64{5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SumRows = %v, want %v", got, want)
		}
	}
}

// TestSumRowsMatchesLoop: on each body SumRows has the bits of the loop it
// replaced — every column summed from the first row down, starting from +0 —
// at one row and at more than two mask words of them, at a width for every
// kernel, with a column of -0 (whose sum is +0), a column with an infinity of
// each sign (NaN from there on) and a column with a NaN in it.
func TestSumRowsMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, path := range kernelPaths(t) {
		setKernelPath(t, path)
		for _, shape := range [][2]int{{1, 1}, {1, 64}, {3, 5}, {64, 1}, {65, 8}, {130, 63}, {1024, 64}, {200, 69}, {0, 4}} {
			rows, cols := shape[0], shape[1]
			m := oddMatrix(rows, cols)
			fillOperand(m, rng, halfZeros)
			for i := 0; i < rows; i++ {
				m.Set(i, 0, math.Copysign(0, -1))
				if cols > 2 {
					m.Set(i, cols-1, []float64{1, math.Inf(1), math.Inf(-1), 2}[i%4])
				}
			}
			if rows > 2 && cols > 1 {
				m.Set(rows/2, 1, math.NaN())
			}
			want := make([]float64, cols)
			for i := 0; i < rows; i++ {
				for j, v := range m.Row(i) {
					want[j] += v
				}
			}
			got := make([]float64, cols+1)
			got[cols] = 42
			m.SumRows(got[:cols])
			for j := range want {
				w, g := want[j], got[j]
				if math.IsNaN(w) != math.IsNaN(g) || !math.IsNaN(w) && math.Float64bits(w) != math.Float64bits(g) {
					t.Fatalf("path=%s %dx%d: column %d sums to %x, the loop to %x", path, rows, cols, j, math.Float64bits(g), math.Float64bits(w))
				}
			}
			if got[cols] != 42 {
				t.Fatalf("path=%s %dx%d: the word after dst was overwritten", path, rows, cols)
			}
		}
	}
}

func TestSliceCols(t *testing.T) {
	src := FromSlice(2, 4, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	mid := SliceCols(New(2, 2), src, 1, 3)
	if !ApproxEqual(mid, FromSlice(2, 2, []float64{2, 3, 6, 7}), 0) {
		t.Fatalf("SliceCols = %v", mid.Data)
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New(10, 10)
	m.XavierInit(rng, 64, 64)
	limit := math.Sqrt(6.0 / 128.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Xavier value %v outside [-%v, %v]", v, limit, limit)
		}
	}
	for _, v := range m.Data {
		if v != 0 {
			return
		}
	}
	t.Fatal("Xavier init produced all zeros")
}

// Property: (A×B)×C == A×(B×C) within numerical tolerance.
func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		m := 2 + r.Intn(5)
		p := 2 + r.Intn(5)
		q := 2 + r.Intn(5)
		a := New(n, m)
		a.RandNormal(r, 0, 1)
		b := New(m, p)
		b.RandNormal(r, 0, 1)
		c := New(p, q)
		c.RandNormal(r, 0, 1)
		left := MatMul(New(n, q), MatMul(New(n, p), a, b), c)
		right := MatMul(New(n, q), a, MatMul(New(m, q), b, c))
		return ApproxEqual(left, right, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A×(B+C) == A×B + A×C.
func TestMatMulDistributivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		m := 1 + r.Intn(6)
		p := 1 + r.Intn(6)
		a := New(n, m)
		a.RandNormal(r, 0, 1)
		b := New(m, p)
		b.RandNormal(r, 0, 1)
		c := New(m, p)
		c.RandNormal(r, 0, 1)
		left := MatMul(New(n, p), a, Add(New(m, p), b, c))
		right := Add(New(n, p), MatMul(New(n, p), a, b), MatMul(New(n, p), a, c))
		return ApproxEqual(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add(Add(a,b),-b) == a.
func TestAddSubInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(8)
		cols := 1 + r.Intn(8)
		a := New(rows, cols)
		a.RandNormal(r, 0, 10)
		b := New(rows, cols)
		b.RandNormal(r, 0, 10)
		sum := Add(New(rows, cols), a, b)
		b.Scale(-1)
		back := Add(New(rows, cols), sum, b)
		return ApproxEqual(back, a, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
