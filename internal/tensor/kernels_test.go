package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
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
		rows: func(dst, a, b *Matrix, lo, hi int) {
			matMulRows(dst, a, TransposeRows(nil, b, 0, b.Rows), nil, false, lo, hi)
		},
		ref: refMatMulTransB, entry: MatMulTransB,
		par: func(dst, a, b *Matrix) *Matrix { // what nn.Dense's backward runs
			return MatMulParallel(dst, a, TransposeRows(nil, b, 0, b.Rows))
		},
	},
	{
		name: "TransA", // gradW(k×n) = x(m×k)ᵀ · grad(m×n)
		shapes: func(m, k, n int) (dst, a, b [2]int) {
			return [2]int{k, n}, [2]int{m, k}, [2]int{m, n}
		},
		rows: matMulTransARows, ref: refMatMulTransA, entry: MatMulTransA, par: MatMulTransAParallel,
	},
}

// kernelPaths lists the axpy4Blocks bodies this CPU can run, as values of
// useAVX2: the Go loop always, the assembly where cpuHasAVX2. Tests of the
// kernel contract run once per entry, so one binary holds both bodies to the
// scalar reference; on a CPU without AVX2 the assembly leg is logged and left
// out.
func kernelPaths(t testing.TB) []bool {
	if !cpuHasAVX2() {
		t.Log("assembly path not run: this CPU or OS lacks AVX2")
		return []bool{false}
	}
	return []bool{false, true}
}

// setKernelPath switches axpy4Blocks' body until the test ends.
func setKernelPath(t testing.TB, avx2 bool) {
	prev := useAVX2
	t.Cleanup(func() { useAVX2 = prev })
	useAVX2 = avx2
}

// oddMatrix returns a rows×cols matrix whose first element sits 8 bytes past
// a 32-byte boundary, the way a sub-slice at an odd offset does: every vector
// load and store in the assembly is then unaligned.
func oddMatrix(rows, cols int) *Matrix {
	buf := make([]float64, rows*cols+4)
	off := 0
	for uintptr(unsafe.Pointer(&buf[off]))%32 != 8 {
		off++
	}
	return FromSlice(rows, cols, buf[off:off+rows*cols])
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
	a, b := oddMatrix(as[0], as[1]), oddMatrix(bs[0], bs[1])
	fillOperand(a, rng, halfZero)
	fillOperand(b, rng, halfZero)
	want := New(ds[0], ds[1])
	p.ref(want, a, b)

	fail := func(what string, got *Matrix) {
		t.Helper()
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("%s path=%s m=%d k=%d n=%d halfZero=%v seed=%d: %s element %d = %x, reference %x",
				p.name, KernelPath(), m, k, n, halfZero, seed, what, i,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
	got := oddMatrix(ds[0], ds[1])
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

// TestKernelsMatchScalarReference is the contract test for the product
// kernels, on each axpy4Blocks body: every shape in the table (k remainders of
// every size against the four-deep blocks; output widths that exercise the
// assembly's eight-wide body, its four-wide step and every tail length; the
// one-row acting shape; the batch-1024 update shapes), dense and half-zero
// operands at unaligned addresses, every way of splitting the row range.
func TestKernelsMatchScalarReference(t *testing.T) {
	for _, avx2 := range kernelPaths(t) {
		setKernelPath(t, avx2)
		for _, p := range products {
			for _, m := range []int{1, 2, 3, 1024} {
				widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65}
				if m == 1024 {
					widths = []int{1, 5, 63, 64} // what an update runs; the rest only adds minutes
				}
				for _, k := range []int{1, 3, 4, 5, 63, 64} {
					for _, n := range widths {
						for _, halfZero := range []bool{false, true} {
							ds, _, _ := p.shapes(m, k, n)
							checkProduct(t, p, m, k, n, halfZero, int64(m*1000+k*10+n), ds[0] <= 64)
						}
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
		for _, avx2 := range kernelPaths(t) {
			setKernelPath(t, avx2)
			for _, p := range products {
				checkProduct(t, p, int(m)%48+1, int(k)%80+1, int(n)%80+1, halfZero, seed, true)
			}
		}
	})
}

// TestAxpy4BlocksStaysInBounds calls the primitive directly, stepping the way
// each kernel steps it, on slices cut out of the middle of larger buffers:
// the words before and after d and the word after b must come back
// untouched, and d must hold what the Go loop computes — an assembly body
// that stored past column n, or that let a word beyond b into a sum, fails
// one or the other.
func TestAxpy4BlocksStaysInBounds(t *testing.T) {
	canary := math.Float64frombits(0x7ff8dead0000beef) // a NaN no arithmetic here produces
	isCanary := func(v float64) bool { return math.Float64bits(v) == math.Float64bits(canary) }
	rng := rand.New(rand.NewSource(14))
	const count, aStride = 3, 5
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65} {
		for _, walk := range []struct {
			name                        string
			dLen, aLen, bLen            int
			stride, dStep, aStep, bStep int
			zeroStep                    int // this step's multipliers are all ±0
		}{
			{"rows", n, 4 * count, 4 * n * count, 1, 0, 4, 4 * n, 1},
			{"transA", n * count, 3*aStride + count, 4 * n, aStride, n, 1, 0, 2},
		} {
			dbuf, a, bbuf := make([]float64, walk.dLen+2), make([]float64, walk.aLen), make([]float64, walk.bLen+1)
			for _, buf := range [][]float64{dbuf, a, bbuf} {
				for i := range buf {
					buf[i] = rng.NormFloat64()
				}
			}
			for r := 0; r < 4; r++ {
				a[walk.zeroStep*walk.aStep+r*walk.stride] = math.Copysign(0, float64(r%2)-0.5)
			}
			dbuf[0], dbuf[walk.dLen+1], bbuf[walk.bLen] = canary, canary, canary

			var want []float64
			for _, avx2 := range kernelPaths(t) {
				setKernelPath(t, avx2)
				d := append([]float64(nil), dbuf...)
				axpy4Blocks(d[1:walk.dLen+1], n, a, walk.stride, bbuf[:walk.bLen], count, walk.dStep, walk.aStep, walk.bStep)
				if !isCanary(d[0]) || !isCanary(d[walk.dLen+1]) {
					t.Fatalf("%s path=%s n=%d: a word next to d was overwritten", walk.name, KernelPath(), n)
				}
				if !isCanary(bbuf[walk.bLen]) {
					t.Fatalf("%s path=%s n=%d: the word after b was overwritten", walk.name, KernelPath(), n)
				}
				if want == nil {
					want = d // the Go loop runs first
					continue
				}
				if j, ok := bitsEqual(FromSlice(1, len(d), d), FromSlice(1, len(d), want)); !ok {
					t.Fatalf("%s path=%s n=%d: d[%d] = %x, Go loop %x", walk.name, KernelPath(), n, j-1,
						math.Float64bits(d[j]), math.Float64bits(want[j]))
				}
			}
		}
	}
}

// TestKernelsBatchInvariant: row i of an m-row product equals the one-row
// product of row i. The rollout engine's "vectorized ≡ single env" and the
// serving gateway's "batched ≡ per-request" contracts both rest on this.
func TestKernelsBatchInvariant(t *testing.T) {
	for _, avx2 := range kernelPaths(t) {
		setKernelPath(t, avx2)
		rng := rand.New(rand.NewSource(11))
		for _, shape := range [][3]int{{37, 18, 64}, {37, 64, 64}, {37, 64, 5}, {9, 69, 16}} {
			m, k, n := shape[0], shape[1], shape[2]
			x, w := New(m, k), New(k, n)
			fillOperand(x, rng, true)
			fillOperand(w, rng, false)
			wt := TransposeRows(nil, w, 0, k) // for x · wtᵀ
			full, fullTB := MatMul(New(m, n), x, w), MatMulTransB(New(m, n), x, wt)
			for i := 0; i < m; i++ {
				xi := FromSlice(1, k, x.Row(i))
				for name, pair := range map[string][2]*Matrix{
					"MatMul": {MatMul(New(1, n), xi, w), FromSlice(1, n, full.Row(i))},
					"TransB": {MatMulTransB(New(1, n), xi, wt), FromSlice(1, n, fullTB.Row(i))},
				} {
					if j, ok := bitsEqual(pair[0], pair[1]); !ok {
						t.Fatalf("%s path=%s %dx%dx%d: row %d alone differs from row %d of the batch at column %d",
							name, KernelPath(), m, k, n, i, i, j)
					}
				}
			}
		}
	}
}

// TestMatMulBiasMatchesSeparatePasses: the fused dense forward equals the
// reference product, then AddRowVector, then ReLU element by element.
func TestMatMulBiasMatchesSeparatePasses(t *testing.T) {
	for _, avx2 := range kernelPaths(t) {
		setKernelPath(t, avx2)
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
				t.Fatalf("path=%s %dx%dx%d: biased element %d = %v, want %v", KernelPath(), m, k, n, i, got.Data[i], want.Data[i])
			}
			for i, v := range want.Data {
				if !(v > 0) {
					want.Data[i] = 0
				}
			}
			got = MatMulBiasParallel(poison(got), x, w, bias.Data, true)
			if i, ok := bitsEqual(got, want); !ok {
				t.Fatalf("path=%s %dx%dx%d: activated element %d = %v, want %v", KernelPath(), m, k, n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulSkipsOnlyWholeZeroBlocks pins the non-finite contract: a zero
// multiplier meets an infinity in b. Where the whole four-wide block of
// multipliers is zero the block is skipped and the infinity is never
// touched; where the block has any non-zero multiplier, 0·Inf = NaN reaches
// the sum, as IEEE arithmetic says it should. a × bᵀ is a × (bᵀ) through the
// same kernel, so it skips the same blocks.
func TestMatMulSkipsOnlyWholeZeroBlocks(t *testing.T) {
	inf := math.Inf(1)
	a := FromSlice(1, 8, []float64{0, 0, 0, 0, 2, 0, 0, 0})
	for name, mul := range map[string]func(a, col *Matrix) float64{
		"MatMul":       func(a, col *Matrix) float64 { return MatMul(New(1, 1), a, col).Data[0] },
		"MatMulTransB": func(a, col *Matrix) float64 { return MatMulTransB(New(1, 1), a, FromSlice(1, 8, col.Data)).Data[0] },
	} {
		b := New(8, 1)
		b.Fill(1)
		b.Data[1], b.Data[5] = inf, inf
		if got := mul(a, b); !math.IsNaN(got) {
			t.Fatalf("%s: 0·Inf inside a block with a non-zero multiplier gave %v, want NaN", name, got)
		}
		b.Data[5] = 1
		if got := mul(a, b); got != 2 {
			t.Fatalf("%s: an all-zero block over an Inf gave %v, want it skipped (2)", name, got)
		}
	}
}

// TestMatMulBiasOneRowDoesNotAllocate: the acting forward — one observation
// row through a dense layer — runs on the caller's goroutine without building
// the closure the row-parallel path needs.
func TestMatMulBiasOneRowDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, w, bias, dst := New(1, 18), New(18, 64), New(1, 64), New(1, 64)
	fillOperand(x, rng, false)
	fillOperand(w, rng, false)
	if allocs := testing.AllocsPerRun(100, func() { MatMulBiasParallel(dst, x, w, bias.Data, true) }); allocs != 0 {
		t.Fatalf("1x18x64 MatMulBiasParallel allocates %v times per call, want 0", allocs)
	}
}

var kernelSink *Matrix

// BenchmarkKernels times the three products at the shapes one MADDPG update
// on 3-agent cooperative navigation runs them at (joint critic input 63,
// hidden 64, batch 1024) and at the one-row acting shape, on each axpy4Blocks body
// this CPU has, and reports GFLOP/s (two flops per multiply-add, skipped
// zero blocks included). `make bench-kernels` runs it.
func BenchmarkKernels(b *testing.B) {
	for _, shape := range [][3]int{{1024, 63, 64}, {1024, 64, 64}, {1024, 64, 1}, {1, 18, 64}, {1, 64, 64}} {
		m, k, n := shape[0], shape[1], shape[2]
		for _, p := range products {
			for _, halfZero := range []bool{false, true} {
				if halfZero && n == 1 {
					continue
				}
				for _, avx2 := range kernelPaths(b) {
					setKernelPath(b, avx2)
					name := fmt.Sprintf("%s/%dx%dx%d", p.name, m, k, n)
					if halfZero {
						name += "/halfzero"
					}
					b.Run(name+"/path="+KernelPath(), func(b *testing.B) {
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
}
