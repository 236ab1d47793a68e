package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The scalar loops the blocked kernels replaced, kept as the bit-level
// reference: one multiply and one add, each rounded once, per (element, k),
// summed over k in ascending order from +0, skipping a multiplier that is
// exactly zero.

func refMatMul(dst, a, b *Matrix) {
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow, drow := a.Row(i), dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				drow[j] += av * brow[j]
			}
		}
	}
}

func refMatMulTransA(dst, a, b *Matrix) {
	dst.Zero()
	for k := 0; k < a.Rows; k++ {
		arow, brow := a.Row(k), b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j := range brow {
				drow[j] += av * brow[j]
			}
		}
	}
}

func refMatMulTransB(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		arow, drow := a.Row(i), dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			drow[j] = sum
		}
	}
}

// product describes one of the three matrix products in terms of the forward
// shape x(m×k)·W(k×n): which operand shapes it takes, the row-range kernel
// under test and the scalar reference.
type product struct {
	name   string
	shapes func(m, k, n int) (dst, a, b [2]int)
	rows   func(dst, a, b *Matrix, lo, hi int)
	ref    func(dst, a, b *Matrix)
	entry  func(dst, a, b *Matrix) *Matrix
	par    func(dst, a, b *Matrix) *Matrix
}

var products = []product{
	{
		name: "MatMul", // y(m×n) = x(m×k) · W(k×n)
		shapes: func(m, k, n int) (dst, a, b [2]int) {
			return [2]int{m, n}, [2]int{m, k}, [2]int{k, n}
		},
		rows: func(dst, a, b *Matrix, lo, hi int) { matMulRows(dst, a, b, nil, false, lo, hi) },
		ref:  refMatMul, entry: MatMul, par: MatMulParallel,
	},
	{
		name: "TransB", // gradIn(m×k) = grad(m×n) · W(k×n)ᵀ
		shapes: func(m, k, n int) (dst, a, b [2]int) {
			return [2]int{m, k}, [2]int{m, n}, [2]int{k, n}
		},
		rows: matMulTransBRows, ref: refMatMulTransB, entry: MatMulTransB, par: MatMulTransBParallel,
	},
	{
		name: "TransA", // gradW(k×n) = x(m×k)ᵀ · grad(m×n)
		shapes: func(m, k, n int) (dst, a, b [2]int) {
			return [2]int{k, n}, [2]int{m, k}, [2]int{m, n}
		},
		rows: matMulTransARows, ref: refMatMulTransA, entry: MatMulTransA, par: MatMulTransAParallel,
	},
}

// fillOperand fills m with N(0,1) values; with halfZero, about half of them
// (chosen independently) become exact zeros with either sign, the way a ReLU
// output or a masked gradient looks.
func fillOperand(m *Matrix, rng *rand.Rand, halfZero bool) {
	m.RandNormal(rng, 0, 1)
	if !halfZero {
		return
	}
	for i := range m.Data {
		switch rng.Intn(4) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
}

// poison fills m with NaN so an element the kernel fails to write shows up.
func poison(m *Matrix) *Matrix {
	m.Fill(math.NaN())
	return m
}

func bitsEqual(a, b *Matrix) (int, bool) {
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return i, false
		}
	}
	return 0, true
}

// checkProduct compares one product at one shape against the reference, bit
// for bit: the serial and parallel entry points, and the row-range kernel
// under every split of its row range into two calls.
func checkProduct(t testing.TB, p product, m, k, n int, halfZero bool, seed int64, everySplit bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds, as, bs := p.shapes(m, k, n)
	a, b := New(as[0], as[1]), New(bs[0], bs[1])
	fillOperand(a, rng, halfZero)
	fillOperand(b, rng, halfZero)
	want := New(ds[0], ds[1])
	p.ref(want, a, b)

	fail := func(what string, got *Matrix) {
		t.Helper()
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("%s m=%d k=%d n=%d halfZero=%v seed=%d: %s element %d = %x, reference %x",
				p.name, m, k, n, halfZero, seed, what, i,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
	got := New(ds[0], ds[1])
	fail("serial entry", p.entry(poison(got), a, b))
	fail("parallel entry", p.par(poison(got), a, b))

	// Every split of a 1024-row range is a million kernel calls: beyond 64
	// rows take the cuts near the start (every phase of the four-wide
	// blocks) and a few far apart.
	rows := ds[0]
	var cuts []int
	for cut := 0; cut <= rows; cut++ {
		if everySplit || cut < 9 || cut%(rows/8+1) == 0 || cut == rows {
			cuts = append(cuts, cut)
		}
	}
	for _, cut := range cuts {
		poison(got)
		p.rows(got, a, b, cut, rows) // upper part first: order must not matter either
		p.rows(got, a, b, 0, cut)
		fail(fmt.Sprintf("split at %d", cut), got)
	}
}

// TestKernelsMatchScalarReference is the contract test for the three blocked
// kernels: every shape in the table (remainders of every size against the
// four-wide blocks, the one-row acting shape, the batch-1024 update shapes),
// dense and half-zero operands, every way of splitting the row range.
func TestKernelsMatchScalarReference(t *testing.T) {
	for _, p := range products {
		for _, m := range []int{1, 2, 3, 1024} {
			for _, k := range []int{1, 3, 4, 5, 63, 64} {
				for _, n := range []int{1, 5, 63, 64} {
					for _, halfZero := range []bool{false, true} {
						ds, _, _ := p.shapes(m, k, n)
						checkProduct(t, p, m, k, n, halfZero, int64(m*1000+k*10+n), ds[0] <= 64)
					}
				}
			}
		}
	}
}

// FuzzKernels drives the same comparison from fuzzed shapes and seeds.
func FuzzKernels(f *testing.F) {
	f.Add(uint8(1), uint8(18), uint8(64), int64(1), false)
	f.Add(uint8(7), uint8(69), uint8(16), int64(2), true)
	f.Add(uint8(33), uint8(4), uint8(1), int64(3), true)
	f.Fuzz(func(t *testing.T, m, k, n uint8, seed int64, halfZero bool) {
		if m == 0 || k == 0 || n == 0 {
			t.Skip()
		}
		for _, p := range products {
			checkProduct(t, p, int(m)%48+1, int(k)%80+1, int(n)%80+1, halfZero, seed, true)
		}
	})
}

// TestKernelsBatchInvariant: row i of an m-row product equals the one-row
// product of row i. The rollout engine's "vectorized ≡ single env" and the
// serving gateway's "batched ≡ per-request" contracts both rest on this.
func TestKernelsBatchInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][3]int{{37, 18, 64}, {37, 64, 64}, {37, 64, 5}, {9, 69, 16}} {
		m, k, n := shape[0], shape[1], shape[2]
		x, w := New(m, k), New(k, n)
		fillOperand(x, rng, true)
		fillOperand(w, rng, false)
		wt := New(n, k) // w transposed, for x · wtᵀ
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				wt.Set(j, i, w.At(i, j))
			}
		}
		full, fullTB := MatMul(New(m, n), x, w), MatMulTransB(New(m, n), x, wt)
		for i := 0; i < m; i++ {
			xi := FromSlice(1, k, x.Row(i))
			for name, pair := range map[string][2]*Matrix{
				"MatMul": {MatMul(New(1, n), xi, w), FromSlice(1, n, full.Row(i))},
				"TransB": {MatMulTransB(New(1, n), xi, wt), FromSlice(1, n, fullTB.Row(i))},
			} {
				if j, ok := bitsEqual(pair[0], pair[1]); !ok {
					t.Fatalf("%s %dx%dx%d: row %d alone differs from row %d of the batch at column %d", name, m, k, n, i, i, j)
				}
			}
		}
	}
}

// TestMatMulBiasMatchesSeparatePasses: the fused dense forward equals the
// reference product, then AddRowVector, then ReLU element by element.
func TestMatMulBiasMatchesSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, shape := range [][3]int{{1, 18, 64}, {33, 69, 16}, {1024, 63, 64}, {5, 64, 1}} {
		m, k, n := shape[0], shape[1], shape[2]
		x, w, bias := New(m, k), New(k, n), New(1, n)
		fillOperand(x, rng, true)
		fillOperand(w, rng, false)
		fillOperand(bias, rng, true)
		want := New(m, n)
		refMatMul(want, x, w)
		want.AddRowVector(bias.Data)
		got := MatMulBiasParallel(poison(New(m, n)), x, w, bias.Data, false)
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("%dx%dx%d: biased element %d = %v, want %v", m, k, n, i, got.Data[i], want.Data[i])
		}
		for i, v := range want.Data {
			if !(v > 0) {
				want.Data[i] = 0
			}
		}
		got = MatMulBiasParallel(poison(got), x, w, bias.Data, true)
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("%dx%dx%d: activated element %d = %v, want %v", m, k, n, i, got.Data[i], want.Data[i])
		}
	}
}

// TestMatMulSkipsOnlyWholeZeroBlocks pins the non-finite contract: a zero
// multiplier meets an infinity in b. Where the whole four-wide block of
// multipliers is zero the block is skipped and the infinity is never
// touched; where the block has any non-zero multiplier, 0·Inf = NaN reaches
// the sum, as IEEE arithmetic says it should.
func TestMatMulSkipsOnlyWholeZeroBlocks(t *testing.T) {
	inf := math.Inf(1)
	b := New(8, 1)
	b.Fill(1)
	b.Data[1], b.Data[5] = inf, inf
	a := FromSlice(1, 8, []float64{0, 0, 0, 0, 2, 0, 0, 0})
	if got := MatMul(New(1, 1), a, b).Data[0]; !math.IsNaN(got) {
		t.Fatalf("0·Inf inside a block with a non-zero multiplier gave %v, want NaN", got)
	}
	b.Data[5] = 1
	if got := MatMul(New(1, 1), a, b).Data[0]; got != 2 {
		t.Fatalf("an all-zero block over an Inf gave %v, want it skipped (2)", got)
	}
}

var kernelSink *Matrix

// BenchmarkKernels times the three products at the shapes one MADDPG update
// on 3-agent cooperative navigation runs them at (joint critic input 63,
// hidden 64, batch 1024) and at the one-row acting shape, and reports
// GFLOP/s (two flops per multiply-add). `make bench-kernels` runs it.
func BenchmarkKernels(b *testing.B) {
	for _, shape := range [][3]int{{1024, 63, 64}, {1024, 64, 64}, {1024, 64, 1}, {1, 18, 64}, {1, 64, 64}} {
		m, k, n := shape[0], shape[1], shape[2]
		for _, p := range products {
			for _, halfZero := range []bool{false, true} {
				if halfZero && (p.name != "MatMul" || n == 1) {
					continue // only MatMul branches on its data
				}
				name := fmt.Sprintf("%s/%dx%dx%d", p.name, m, k, n)
				if halfZero {
					name += "/halfzero"
				}
				b.Run(name, func(b *testing.B) {
					rng := rand.New(rand.NewSource(5))
					ds, as, bs := p.shapes(m, k, n)
					dst, x, y := New(ds[0], ds[1]), New(as[0], as[1]), New(bs[0], bs[1])
					fillOperand(x, rng, halfZero)
					fillOperand(y, rng, false)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						kernelSink = p.entry(dst, x, y)
					}
					flop := 2 * float64(m) * float64(k) * float64(n) * float64(b.N)
					b.ReportMetric(flop/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}
