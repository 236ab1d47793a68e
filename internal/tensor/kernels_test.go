package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// The scalar loops the blocked kernels replaced, with each step a fused
// multiply-add, kept as the bit-level reference: one math.FMA, rounded once,
// per (element, k), summed over k in ascending order from +0, skipping a
// multiplier that is exactly zero.

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
				drow[j] = math.FMA(av, brow[j], drow[j])
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
				drow[j] = math.FMA(av, brow[j], drow[j])
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
				sum = math.FMA(av, brow[k], sum)
			}
			drow[j] = sum
		}
	}
}

// refBiasReLU is the reference for a dense layer's fused forward: the
// product, then testBias(n) added to every row, then ReLU.
func refBiasReLU(dst, a, b *Matrix) {
	refMatMul(dst, a, b)
	addBias(dst, testBias(dst.Cols))
	for i, v := range dst.Data {
		dst.Data[i] = ReLU(v)
	}
}

// addBias adds the bias vector v to every row of m, one plain addition per
// element: the bias pass the fused product replaces.
func addBias(m *Matrix, v []float64) {
	for i := 0; i < m.Rows; i++ {
		for j, b := range v {
			m.Row(i)[j] += b
		}
	}
}

// testBias returns n biases of both signs, zeros among them, so that ReLU
// clears some biased sums and keeps others.
func testBias(n int) []float64 {
	bias := make([]float64, n)
	for j := range bias {
		bias[j] = float64(j%7-3) / 4
	}
	return bias
}

// product describes one of the matrix products in terms of the forward
// shape x(m×k)·W(k×n): which operand shapes it takes, the row-range kernel
// under test and the scalar reference. A pitched product also runs with a as
// a column view (aPitches).
type product struct {
	name    string
	shapes  func(m, k, n int) (dst, a, b [2]int)
	rows    func(dst, a, b *Matrix, lo, hi int)
	ref     func(dst, a, b *Matrix)
	entry   func(dst, a, b *Matrix) *Matrix
	pitched bool
}

var products = []product{
	{
		name: "MatMul", // y(m×n) = x(m×k) · W(k×n)
		shapes: func(m, k, n int) (dst, a, b [2]int) {
			return [2]int{m, n}, [2]int{m, k}, [2]int{k, n}
		},
		rows: func(dst, a, b *Matrix, lo, hi int) { matMulRows(dst, a, b, nil, false, nil, lo, hi) },
		ref:  refMatMul, entry: MatMul, pitched: true,
	},
	{
		name: "BiasReLU", // y(m×n) = ReLU(x(m×k) · W(k×n) + bias)
		shapes: func(m, k, n int) (dst, a, b [2]int) {
			return [2]int{m, n}, [2]int{m, k}, [2]int{k, n}
		},
		rows: func(dst, a, b *Matrix, lo, hi int) {
			matMulRows(dst, a, b, testBias(b.Cols), true, nil, lo, hi)
		},
		ref: refBiasReLU, pitched: true,
		entry: func(dst, a, b *Matrix) *Matrix { return MatMulBias(dst, a, b, testBias(b.Cols), true) },
	},
	{
		name: "TransB", // gradIn(m×k) = grad(m×n) · W(k×n)ᵀ
		shapes: func(m, k, n int) (dst, a, b [2]int) {
			return [2]int{m, k}, [2]int{m, n}, [2]int{k, n}
		},
		rows: func(dst, a, b *Matrix, lo, hi int) {
			matMulRows(dst, a, TransposeRows(nil, b, 0, b.Rows), nil, false, nil, lo, hi)
		},
		ref: refMatMulTransB, entry: MatMulTransB,
	},
	{
		name: "TransA", // gradW(k×n) = x(m×k)ᵀ · grad(m×n)
		shapes: func(m, k, n int) (dst, a, b [2]int) {
			return [2]int{k, n}, [2]int{m, k}, [2]int{m, n}
		},
		rows: matMulTransARows, ref: refMatMulTransA, entry: MatMulTransA, pitched: true,
	},
}

// kernelLanes maps the name of a body of the product nests, as KernelPath
// reports it, to the value of vectorLanes that selects it.
var kernelLanes = map[string]int{"go": 0, "avx2": 4, "avx512": 8}

// kernelPaths lists the bodies this CPU can run, by name: the Go loops
// always, the resident assembly up to the width cpuVectorLanes reports. Tests
// of the kernel contract run once per entry, so one binary holds every body
// to the scalar reference; a body the CPU or the OS lacks is logged and left
// out.
func kernelPaths(t testing.TB) []string {
	paths := []string{"go"}
	for _, name := range []string{"avx2", "avx512"} {
		if kernelLanes[name] <= cpuVectorLanes() {
			paths = append(paths, name)
		} else {
			t.Logf("%s body not run: this CPU or OS lacks it (both need AVX2, BMI1 and FMA)", name)
		}
	}
	return paths
}

// setKernelPath switches the nests' body until the test ends.
func setKernelPath(t testing.TB, name string) {
	lanes, ok := kernelLanes[name]
	if !ok {
		t.Fatalf("no kernel body named %q", name)
	}
	prev := vectorLanes
	t.Cleanup(func() { vectorLanes = prev })
	vectorLanes = lanes
}

// TestKernelPathsNamed: the names the tests select bodies by are the names
// KernelPath stamps benchmark output with, and the body a fresh process runs
// is the widest one listed. Both assembly bodies walk their zero masks with
// TZCNT and BLSR and step with VFMADD231PD, so a CPU that has AVX2 but not
// BMI1, or not FMA, lists, and runs, only the Go body: cpuHasAVX2 asks CPUID
// for the first two, cpuHasFMA for the third.
func TestKernelPathsNamed(t *testing.T) {
	paths := kernelPaths(t)
	if got, want := KernelPath(), paths[len(paths)-1]; got != want {
		t.Fatalf("this process runs %q, the widest body listed is %q", got, want)
	}
	for _, name := range paths {
		setKernelPath(t, name)
		if got := KernelPath(); got != name {
			t.Fatalf("KernelPath() = %q with the %q body selected", got, name)
		}
	}
	t.Logf("bodies exercised on this runner: %v", paths)
}

// oddMatrix returns a rows×cols matrix whose first element sits 8 bytes past
// a 64-byte boundary, the way a sub-slice at an odd offset does: every vector
// load and store in the assembly is then unaligned.
func oddMatrix(rows, cols int) *Matrix {
	buf := make([]float64, rows*cols+8)
	off := 0
	for uintptr(unsafe.Pointer(&buf[off]))%64 != 8 {
		off++
	}
	return FromSlice(rows, cols, buf[off:off+rows*cols])
}

// aPitches are the row pitches a pitched product's a operand runs at, as the
// columns its view adds to its width: none (a dense a, or a view of every
// column, which is the same matrix), one, and 47.
var aPitches = []int{0, 1, 47}

// viewOf returns a copy of a as a column view of a wider matrix whose rows
// are extra columns longer, a at an offset inside each and every other column
// a NaN: a kernel that read past a row of the view would take one in.
func viewOf(a *Matrix, extra int) *Matrix {
	parent := oddMatrix(a.Rows, a.Cols+extra)
	parent.Fill(math.NaN())
	off := (extra + 1) / 2
	v := parent.ColView(off, off+a.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(v.Row(i), a.Row(i))
	}
	return v
}

// zeros says which elements of an operand are exact zeros, of either sign.
type zeros int

const (
	dense      zeros = iota // none
	halfZeros               // each with probability 1/2, independently: a ReLU output, a masked gradient
	mostlyZero              // each with probability 0.95
	trained                 // correlated, as a trained layer's activations are: see fillOperand
	zeroPatterns
)

func (z zeros) String() string {
	return [...]string{"dense", "halfzero", "mostlyzero", "trained"}[z]
}

// fillOperand fills m with N(0,1) values and then makes the elements z names
// exact zeros with either sign. The trained pattern is half zeros on top of
// whole columns of them (a unit that never fires: one column in eight, the
// first included) and whole rows (a sample nothing responds to: one row in
// sixteen), so that a kernel sees multipliers that are zero for a whole word
// of k, for every row at one k, and at random in between.
func fillOperand(m *Matrix, rng *rand.Rand, z zeros) {
	m.RandNormal(rng, 0, 1)
	if z == dense {
		return
	}
	deadCol := make([]bool, m.Cols)
	for j := range deadCol {
		deadCol[j] = z == trained && (j == 0 || rng.Intn(8) == 0)
	}
	for i := 0; i < m.Rows; i++ {
		deadRow := z == trained && rng.Intn(16) == 0
		for j, dead := range deadCol {
			p := 0.5
			if z == mostlyZero {
				p = 0.95
			}
			if dead || deadRow || rng.Float64() < p {
				m.Data[i*m.Cols+j] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
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
// for bit, on each of the given bodies: the entry point, and the row-range
// kernel under every split of its row range into two calls — for a pitched
// product with a at each of aPitches, the splits at the dense pitch only and
// four at the others.
// The reference, the slow part, is computed once for all bodies and pitches.
func checkProduct(t testing.TB, paths []string, p product, m, k, n int, z zeros, seed int64, everySplit bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds, as, bs := p.shapes(m, k, n)
	a, b := oddMatrix(as[0], as[1]), oddMatrix(bs[0], bs[1])
	fillOperand(a, rng, z)
	fillOperand(b, rng, z)
	want := New(ds[0], ds[1])
	p.ref(want, a, b)

	fail := func(what string, got *Matrix) {
		t.Helper()
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("%s path=%s m=%d k=%d n=%d zeros=%v seed=%d: %s element %d = %x, reference %x",
				p.name, KernelPath(), m, k, n, z, seed, what, i,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
	// Every split of a 1024-row range is a million kernel calls: beyond 64
	// rows take the cuts near the start (every phase of the narrow kernel's
	// groups of eight rows) and a few far apart.
	rows := ds[0]
	var cuts []int
	for cut := 0; cut <= rows; cut++ {
		if everySplit || cut < 10 || cut%(rows/8+1) == 0 || cut == rows {
			cuts = append(cuts, cut)
		}
	}
	got := oddMatrix(ds[0], ds[1])
	defer func(prev int) { vectorLanes = prev }(vectorLanes)
	pitches := aPitches[:1]
	if p.pitched {
		pitches = aPitches
	}
	for _, extra := range pitches {
		av, splits := a, cuts
		if extra > 0 {
			av, splits = viewOf(a, extra), []int{0, 1, rows / 2, rows}
		}
		for _, path := range paths {
			vectorLanes = kernelLanes[path]
			fail(fmt.Sprintf("entry, pitch +%d", extra), p.entry(poison(got), av, b))
			for _, cut := range splits {
				poison(got)
				p.rows(got, av, b, cut, rows) // upper part first: order must not matter either
				p.rows(got, av, b, 0, cut)
				fail(fmt.Sprintf("split at %d, pitch +%d", cut, extra), got)
			}
		}
	}
}

// TestKernelsMatchScalarReference is the contract test for the product
// kernels, on each body, with a dense and as a column view of two pitches
// for a × b (alone and as a dense layer's forward) and aᵀ × b. Few rows (one — the acting shape —, three, the
// vectorized rollout's eight, nine: a group of eight and one more for the narrow kernel):
// every k remainder against the Go body's four-deep blocks and the vectors of
// the mask compares, one word of 64 multipliers, one more, two words and two
// more; every output width that matters to some body — each width of a masked
// panel, one vector and one more, the wide kernels' overlapping last vector
// (29-32 and 57-64 columns), a second panel of one column, of one vector, of
// a whole panel. Batches (67 rows: three chunks of aᵀ × b and a remainder,
// eight groups of eight rows and three; 256; 1024): the trainer's own k and
// n, a k of three and of four, of 65 and of 130. Operands at unaligned
// addresses, dense and with every pattern of zeros, every way of splitting
// the row range. The test runs on one goroutine, so the race detector has
// nothing to find in it: a -race build skips the two big batches, which
// are most of its time there, and CI runs the whole sweep without -race.
func TestKernelsMatchScalarReference(t *testing.T) {
	paths := kernelPaths(t)
	for _, p := range products {
		for _, m := range []int{1, 3, 8, 9, 67, 256, 1024} {
			if raceEnabled && m > 67 {
				continue
			}
			ks := []int{1, 2, 3, 4, 5, 7, 16, 63, 64, 65, 130}
			widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 29, 31, 32, 33, 57, 58, 59, 60, 61, 62, 63, 64, 65, 72, 128}
			if m > 9 {
				// What an update runs; the rest only adds minutes.
				ks, widths = []int{1, 3, 4, 5, 16, 63, 64, 65, 130}, []int{1, 5, 16, 63, 64}
			}
			if m == 67 {
				// Several chunks of aᵀ × b times several panels.
				widths = append(widths, 65, 72, 128)
			}
			for _, k := range ks {
				for _, n := range widths {
					// Dense, and the patterns of zeros turn by turn; the batches,
					// the slow ones, take the pattern training has.
					patterns := []zeros{dense, halfZeros + zeros((k+n)%3)}
					if m > 67 {
						patterns[1] = trained
					}
					for _, z := range patterns {
						ds, _, _ := p.shapes(m, k, n)
						checkProduct(t, paths, p, m, k, n, z, int64(m*1000+k*10+n), ds[0] <= 64)
					}
				}
			}
		}
	}
}

// FuzzKernels drives the same comparison from fuzzed shapes, seeds and
// patterns of zeros, at every pitch; k reaches into a third mask word.
func FuzzKernels(f *testing.F) {
	f.Add(uint8(1), uint8(18), uint8(64), int64(1), uint8(dense))
	f.Add(uint8(7), uint8(69), uint8(16), int64(2), uint8(halfZeros))
	f.Add(uint8(33), uint8(4), uint8(1), int64(3), uint8(halfZeros))
	f.Add(uint8(9), uint8(130), uint8(5), int64(4), uint8(mostlyZero))
	f.Add(uint8(20), uint8(65), uint8(57), int64(5), uint8(trained))
	// Fused-sensitive: at these a kernel that rounded each product before
	// its add fails every product, k of two and three included.
	f.Add(uint8(7), uint8(1), uint8(4), int64(11), uint8(halfZeros))
	f.Add(uint8(2), uint8(2), uint8(63), int64(6), uint8(trained))
	f.Fuzz(func(t *testing.T, m, k, n uint8, seed int64, z uint8) {
		if m == 0 || k == 0 || n == 0 {
			t.Skip()
		}
		for _, p := range products {
			checkProduct(t, kernelPaths(t), p, int(m)%48+1, int(k)%140+1, int(n)%80+1, zeros(z)%zeroPatterns, seed, true)
		}
	})
}

// TestAxpy4BlocksStaysInBounds runs both nests, on each body, on operands cut
// out of the middle of larger buffers: the words before and after dst and
// the word after b must come back untouched, and dst must hold what the Go
// body computes — assembly that stored past a row's last column, or that let
// a word beyond b into a sum, fails one or the other. Six rows are a group of
// four for the narrow kernels and two on their own; seven k are a block and
// a remainder of three, 70 three chunks of aᵀ × b; one block of multipliers
// is all ±0. a × b runs with the bias and ReLU epilogue, whose loads of bias
// are held to the same rule by NaNs next to it.
func TestAxpy4BlocksStaysInBounds(t *testing.T) {
	canary := math.Float64frombits(0x7ff8dead0000beef) // a NaN no arithmetic here produces
	isCanary := func(v float64) bool { return math.Float64bits(v) == math.Float64bits(canary) }
	rng := rand.New(rand.NewSource(14))
	// guarded returns a rows×cols matrix of N(0,1) values with a canary in
	// the word before it and in the word after it, and those two words.
	guarded := func(rows, cols int) (*Matrix, []*float64) {
		buf := make([]float64, rows*cols+2)
		for i := range buf {
			buf[i] = rng.NormFloat64()
		}
		buf[0], buf[len(buf)-1] = canary, canary
		return FromSlice(rows, cols, buf[1:len(buf)-1]), []*float64{&buf[0], &buf[len(buf)-1]}
	}
	const rows = 6
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 72} {
		for _, k := range []int{7, 70} {
			for _, nest := range []string{"rows", "transA"} {
				dst, guards := guarded(rows, n)
				b, bGuards := guarded(k, n)
				bias, biasGuards := guarded(1, n)
				guards = append(append(guards, bGuards...), biasGuards...)
				var a *Matrix
				if nest == "rows" {
					a, _ = guarded(rows, k)
					for c := 0; c < 4; c++ {
						a.Set(1, c, math.Copysign(0, float64(c%2)-0.5))
					}
				} else {
					a, _ = guarded(k, rows)
					for r := 0; r < 4; r++ {
						a.Set(r, 2, math.Copysign(0, float64(r%2)-0.5))
					}
				}
				var want *Matrix
				for _, path := range kernelPaths(t) {
					setKernelPath(t, path)
					poison(dst)
					if nest == "rows" {
						matMulRows(dst, a, b, bias.Data, true, nil, 0, rows)
					} else {
						matMulTransARows(dst, a, b, 0, rows)
					}
					for _, g := range guards {
						if !isCanary(*g) {
							t.Fatalf("%s path=%s n=%d k=%d: a word next to dst, b or bias was overwritten", nest, path, n, k)
						}
					}
					if want == nil {
						want = dst.Clone() // the Go body runs first
						continue
					}
					if i, ok := bitsEqual(dst, want); !ok {
						t.Fatalf("%s path=%s n=%d k=%d: dst[%d] = %x, Go body %x", nest, path, n, k, i,
							math.Float64bits(dst.Data[i]), math.Float64bits(want.Data[i]))
					}
				}
			}
		}
	}
}

// TestKernelsBatchInvariant: row i of an m-row product equals the one-row
// product of row i. The rollout engine's "vectorized ≡ single env" contract
// rests on this.
func TestKernelsBatchInvariant(t *testing.T) {
	for _, path := range kernelPaths(t) {
		setKernelPath(t, path)
		rng := rand.New(rand.NewSource(11))
		for _, shape := range [][3]int{{37, 18, 64}, {37, 64, 64}, {37, 64, 5}, {9, 69, 16}, {8, 16, 64}, {8, 64, 1}} {
			m, k, n := shape[0], shape[1], shape[2]
			x, w := New(m, k), New(k, n)
			fillOperand(x, rng, trained)
			fillOperand(w, rng, dense)
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
							name, path, m, k, n, i, i, j)
					}
				}
			}
		}
	}
}

// TestMatMulBiasMatchesSeparatePasses: the fused dense forward equals the
// reference product, then addBias, then ReLU element by element — the
// branching definition on ordinary values and tensor.ReLU's sign mask on the
// rest: every shape also runs with rows of x that are all zero (sum +0),
// biases that are -0, ±Inf and NaN of either sign, and a column of w negated
// (negative sums), so that an epilogue that compared instead of masking, or
// masked before it added, is caught on the bits.
func TestMatMulBiasMatchesSeparatePasses(t *testing.T) {
	for _, path := range kernelPaths(t) {
		setKernelPath(t, path)
		rng := rand.New(rand.NewSource(12))
		for _, shape := range [][3]int{{1, 18, 64}, {33, 69, 16}, {1024, 63, 64}, {5, 64, 1}, {8, 64, 5}, {6, 7, 72}} {
			m, k, n := shape[0], shape[1], shape[2]
			x, w, bias := New(m, k), New(k, n), New(1, n)
			fillOperand(x, rng, halfZeros)
			fillOperand(w, rng, dense)
			fillOperand(bias, rng, halfZeros)
			want := New(m, n)
			refMatMul(want, x, w)
			addBias(want, bias.Data)
			got := MatMulBias(poison(New(m, n)), x, w, bias.Data, false)
			if i, ok := bitsEqual(got, want); !ok {
				t.Fatalf("path=%s %dx%dx%d: biased element %d = %v, want %v", path, m, k, n, i, got.Data[i], want.Data[i])
			}
			for i, v := range want.Data {
				if !(v > 0) {
					want.Data[i] = 0
				}
			}
			got = MatMulBias(poison(got), x, w, bias.Data, true)
			if i, ok := bitsEqual(got, want); !ok {
				t.Fatalf("path=%s %dx%dx%d: activated element %d = %v, want %v", path, m, k, n, i, got.Data[i], want.Data[i])
			}

			clear(x.Row(m / 2))
			for r := 0; r < k; r++ {
				w.Set(r, n/2, -math.Abs(w.At(r, n/2)))
			}
			specials := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(math.NaN(), -1), -1e-300}
			for j := range bias.Data {
				if j != n/2 {
					bias.Data[j] = specials[j%len(specials)]
				}
			}
			refMatMul(want, x, w)
			addBias(want, bias.Data)
			for i, v := range want.Data {
				want.Data[i] = ReLU(v)
			}
			got = MatMulBias(poison(got), x, w, bias.Data, true)
			if i, ok := bitsEqual(got, want); !ok {
				t.Fatalf("path=%s %dx%dx%d: special element %d = %x, want %x (bias %v)", path, m, k, n, i,
					math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]), bias.Data[i%n])
			}
		}
	}
}

// spread returns the len(col)×n matrix whose row k is col[k] throughout.
func spread(col []float64, n int) *Matrix {
	b := New(len(col), n)
	for k, v := range col {
		for j := 0; j < n; j++ {
			b.Set(k, j, v)
		}
	}
	return b
}

// columnSums runs each product as dst[i][j] = Σ mult[k]·col[k] for every i
// in [0, rows) and j in [0, n): nine rows are a group of eight and a single
// one for the narrow kernel, whose groups treat a b that is not finite
// differently.
var columnSums = map[string]func(mult, col []float64, rows, n int) []float64{
	"MatMul": func(mult, col []float64, rows, n int) []float64 {
		a := TransposeRows(nil, spread(mult, rows), 0, len(mult))
		return MatMul(New(rows, n), a, spread(col, n)).Data
	},
	"MatMulTransB": func(mult, col []float64, rows, n int) []float64 {
		a := TransposeRows(nil, spread(mult, rows), 0, len(mult))
		bt := TransposeRows(nil, spread(col, n), 0, len(col))
		return MatMulTransB(New(rows, n), a, bt).Data
	},
	"MatMulTransA": func(mult, col []float64, rows, n int) []float64 {
		return MatMulTransA(New(rows, n), spread(mult, rows), spread(col, n)).Data
	},
}

// TestMatMulSkipsEveryZeroMultiplier pins the one rule about zeros where it
// can be seen, on each body and each product, at a width for each kernel (a
// single column, five — one masked panel at eight lanes, a vector and a
// column at four —, a whole wide panel): a zero multiplier meets an infinity
// in b. The product is left out of the sum, whatever its neighbours are —
// inside what used to be a block of four with a non-zero multiplier, in the
// last k, in the 64th and 65th (the end of one mask word and the start of the
// next) — and for either sign of the zero. A multiplier that is not zero
// takes its infinity into the sum, and one that is itself infinite or NaN is
// not a zero. a × bᵀ is a × (bᵀ) through the same kernel, so the rule is its
// rule too. And a skipped zero stays invisible under fusion: the sum starts
// at +0, and neither a skipped zero nor a step whose product is -0 ever
// makes it -0 (the results are compared bit for bit, sign included).
func TestMatMulSkipsEveryZeroMultiplier(t *testing.T) {
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	ones := func(k int, at map[int]float64) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = 1
		}
		for i, x := range at {
			v[i] = x
		}
		return v
	}
	// 130 multipliers, zero over an infinity at the end of the first mask
	// word, at the start and the end of the second and in the third.
	long := ones(130, map[int]float64{0: 0, 63: negZero, 64: 0, 127: negZero, 129: 0})
	cases := []struct {
		what      string
		mult, col []float64
		want      float64 // NaN: any NaN
	}{
		{"0·Inf between non-zero multipliers", []float64{3, 0, 1, negZero, 2, 0, 0, 0}, ones(8, map[int]float64{1: inf, 3: inf, 5: inf}), 6},
		{"four zeros in a row over an Inf", []float64{0, negZero, 0, 0, 2, 0, 0, 0}, ones(8, map[int]float64{1: inf}), 2},
		{"a last zero over an Inf", []float64{1, 1, 1, 1, negZero}, ones(5, map[int]float64{4: inf}), 4},
		{"last zeros next to a non-zero multiplier", []float64{1, 1, 1, 1, 0, 3, negZero}, ones(7, map[int]float64{4: inf, 6: inf}), 7},
		{"a first zero over an Inf", []float64{0, 5}, ones(2, map[int]float64{0: inf}), 5},
		{"nothing but a zero over an Inf", []float64{negZero}, []float64{inf}, 0},
		{"zeros at the edges of the mask words", long, ones(130, map[int]float64{0: inf, 63: inf, 64: inf, 127: inf, 129: inf}), 125},
		{"a non-zero multiplier over an Inf", []float64{0, 2, 0}, ones(3, map[int]float64{1: inf}), inf},
		{"an infinite multiplier over a zero", []float64{1, 1, 1, 1, 2, inf}, ones(6, map[int]float64{5: 0}), math.NaN()},
		{"a NaN multiplier", []float64{1, 1, 1, 1, math.NaN(), 2, 2}, ones(7, nil), math.NaN()},
		{"a NaN multiplier among zeros", []float64{0, 0, math.NaN(), 0, 1}, ones(5, nil), math.NaN()},
		{"a NaN multiplier in the second mask word", ones(70, map[int]float64{66: math.NaN()}), ones(70, nil), math.NaN()},
		{"nothing but zeros of either sign", []float64{negZero, 0, negZero, negZero, negZero}, ones(5, map[int]float64{0: -1, 2: inf}), 0},
		{"products that are -0", []float64{2, negZero, 3, 1, negZero, 0}, []float64{negZero, 1, negZero, negZero, -1, inf}, 0},
	}
	for _, path := range kernelPaths(t) {
		setKernelPath(t, path)
		for name, mul := range columnSums {
			for _, rows := range []int{1, 9} {
				for _, n := range []int{1, 5, 64} {
					for _, c := range cases {
						for i, got := range mul(c.mult, c.col, rows, n) {
							if math.IsNaN(c.want) != math.IsNaN(got) || !math.IsNaN(got) && math.Float64bits(got) != math.Float64bits(c.want) {
								t.Fatalf("%s path=%s %d rows n=%d: %s gave %v in element %d, want %v", name, path, rows, n, c.what, got, i, c.want)
							}
						}
					}
				}
			}
		}
	}
}

// TestProductsRoundOncePerMultiplyAdd pins the step itself on each body:
// d = fma(a, b, d), the product and the add rounded once, together. After a
// step that leaves -1 in every element, a = b = 1+2⁻³⁰ tells the two
// arithmetics apart: a·b is 1+2⁻²⁹+2⁻⁶⁰, which one rounding keeps whole in
// the sum (2⁻²⁹+2⁻⁶⁰) and a product rounded on its own loses the 2⁻⁶⁰ of
// (2⁻²⁹). The pair runs in every product — alone, as a dense layer's forward
// with a bias of -2⁻²⁹ and ReLU (2⁻⁶⁰, or +0 unfused), and gated — at the
// widths of TestMatMulSkipsEveryZeroMultiplier, among steps of 1·(+0), which
// change nothing, before and after it: enough to put it in the Go body's
// tail, at each place of a full block of four and in a block with a zero,
// and across the boundary of two chunks of the resident aᵀ × b, whose second
// accumulates into what the first stored; with and without a last zero
// multiplier over an infinity, which sends the wide kernel through its mask
// walk and the narrow one's groups through their masked steps.
func TestProductsRoundOncePerMultiplyAdd(t *testing.T) {
	x := 1 + math.Ldexp(1, -30)
	fused := math.Ldexp(1, -29) + math.Ldexp(1, -60)
	if fused == math.Ldexp(1, -29) || float64(x*x)-1 != math.Ldexp(1, -29) {
		t.Fatal("the operands do not tell the arithmetics apart")
	}
	sums := map[string]func(mult, col []float64, rows, n int) []float64{
		"MatMulBias": func(mult, col []float64, rows, n int) []float64 {
			a := TransposeRows(nil, spread(mult, rows), 0, len(mult))
			bias := spread([]float64{-math.Ldexp(1, -29)}, n).Data
			return MatMulBias(New(rows, n), a, spread(col, n), bias, true).Data
		},
		"MatMulGated": func(mult, col []float64, rows, n int) []float64 {
			a := TransposeRows(nil, spread(mult, rows), 0, len(mult))
			gate := New(rows, n)
			gate.Fill(1)
			return MatMulGated(New(rows, n), a, spread(col, n), gate).Data
		},
	}
	for name, sum := range columnSums {
		sums[name] = sum
	}
	for _, path := range kernelPaths(t) {
		setKernelPath(t, path)
		for name, sum := range sums {
			want := fused
			if name == "MatMulBias" {
				want = math.Ldexp(1, -60)
			}
			for _, rows := range []int{1, 9} {
				for _, n := range []int{1, 5, 64} {
					chunk := max(1, transAChunkFloats/n)
					for _, lead := range []int{0, 1, 2, 3, 4, chunk - 1} {
						for _, zeroLast := range []bool{false, true} {
							for _, trail := range []int{0, 3} {
								mult, col := make([]float64, lead), make([]float64, lead)
								mult, col = append(mult, 1, x), append(col, -1, x)
								mult, col = append(mult, make([]float64, trail)...), append(col, make([]float64, trail)...)
								for k := range mult {
									if k < lead || k >= lead+2 {
										mult[k] = 1
									}
								}
								if zeroLast {
									mult, col = append(mult, 0), append(col, math.Inf(1))
								}
								for i, got := range sum(mult, col, rows, n) {
									if math.Float64bits(got) != math.Float64bits(want) {
										t.Fatalf("%s path=%s %d rows n=%d k=%d at %d, zero last %v: element %d = %x, want %x (one rounding per step)",
											name, path, rows, n, len(mult), lead, zeroLast, i, math.Float64bits(got), math.Float64bits(want))
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// mallocsAt returns the fewest heap allocations one call of f makes at the
// given GOMAXPROCS, over a few trials after a warm-up call (a background
// goroutine of the test binary may allocate during one trial, not during
// all). testing.AllocsPerRun cannot ask the question: it runs f at
// GOMAXPROCS = 1.
func mallocsAt(procs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
	var before, after runtime.MemStats
	fewest := ^uint64(0)
	for trial := 0; trial < 5; trial++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// TestMatMulBiasOneRowDoesNotAllocate: a dense layer's forward runs on the
// caller's goroutine and touches no heap, on each body and with a second core
// to spare — for one observation row (the acting forward) and for a 64-row
// batch.
func TestMatMulBiasOneRowDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, shape := range [][3]int{{1, 18, 64}, {64, 64, 64}} {
		m, k, n := shape[0], shape[1], shape[2]
		x, w, bias, dst := New(m, k), New(k, n), New(1, n), New(m, n)
		fillOperand(x, rng, dense)
		fillOperand(w, rng, dense)
		for _, path := range kernelPaths(t) {
			setKernelPath(t, path)
			if allocs := mallocsAt(2, func() { MatMulBias(dst, x, w, bias.Data, true) }); allocs != 0 {
				t.Fatalf("path=%s: %dx%dx%d MatMulBias allocates %d times per call at GOMAXPROCS=2, want 0", path, m, k, n, allocs)
			}
		}
	}
}

var kernelSink *Matrix

// BenchmarkKernels times the three products on each body this CPU has and
// reports GFLOP/s per body (two flops per multiply-add, the ones a zero
// multiplier skips included): at the shapes one MADDPG update on 3-agent
// cooperative navigation runs them at (joint critic input 63, hidden 64,
// batch 1024), the thin heads of that update (one output, five outputs, and
// the k = 1 outer product the one-output head's backward is), a hidden width
// of 16 (two masked panels of eight at eight lanes, four of four at four),
// the one-row acting shapes, and the eight-row shapes the vectorized rollout
// acts at. Where the multipliers are a hidden
// layer's output in training — k of 16 or more, at batch 1024 or into a head
// — each shape runs three times: dense (the name alone: the floor no change
// to the zero-skip may lower), /halfzero and /trained (fillOperand). The
// bodies take turns rep by rep on the same operands, each on its own clock:
// this host's speed drifts by tens of percent within seconds, so a body
// measured after the other would measure the drift. `make bench-kernels`
// runs it ten times; compare medians.
func BenchmarkKernels(b *testing.B) {
	shapes := [][3]int{
		{1024, 63, 64}, {1024, 64, 64}, {1024, 16, 64},
		{1024, 64, 1}, {1024, 64, 5}, {1024, 1, 64}, {1024, 64, 16},
		{1, 18, 64}, {1, 64, 64}, {1, 64, 5},
		{8, 16, 64}, {8, 64, 64}, {8, 64, 5},
	}
	paths := kernelPaths(b)
	for _, shape := range shapes {
		m, k, n := shape[0], shape[1], shape[2]
		for _, p := range products {
			for _, z := range []zeros{dense, halfZeros, trained} {
				if z != dense && (k < 16 || m < 1024 && n > 5) {
					continue
				}
				name := fmt.Sprintf("%s/%dx%dx%d", p.name, m, k, n)
				if z != dense {
					name += "/" + z.String()
				}
				b.Run(name, func(b *testing.B) { benchProduct(b, paths, p, m, k, n, z) })
			}
		}
	}
}

// BenchmarkKernelsN24 is BenchmarkKernels, dense only, at the largest shape
// an update runs: the first layer of a critic on 24-agent predator-prey
// (joint input 2472, hidden 64, batch 1024), where the resident kernel
// streams all of b (1.27 MB) from L2 once per dst row. One call is a third
// of a GFLOP: `make bench-kernels` runs it at 5x.
func BenchmarkKernelsN24(b *testing.B) {
	const m, k, n = 1024, 2472, 64
	paths := kernelPaths(b)
	for _, p := range products {
		b.Run(fmt.Sprintf("%s/%dx%dx%d", p.name, m, k, n), func(b *testing.B) { benchProduct(b, paths, p, m, k, n, dense) })
	}
}

// benchProduct times one product at one shape on each of the given bodies,
// taking turns rep by rep, and reports GFLOP/s per body.
func benchProduct(b *testing.B, paths []string, p product, m, k, n int, z zeros) {
	rng := rand.New(rand.NewSource(5))
	ds, as, bs := p.shapes(m, k, n)
	dst, x, y := New(ds[0], ds[1]), New(as[0], as[1]), New(bs[0], bs[1])
	fillOperand(x, rng, z)
	fillOperand(y, rng, dense)
	// One timed call of a small product is mostly clock: repeat it.
	inner := max(1, 200000/(m*k*n))
	spent := make([]time.Duration, len(paths))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pi, path := range paths {
			vectorLanes = kernelLanes[path]
			t0 := time.Now()
			for r := 0; r < inner; r++ {
				kernelSink = p.entry(dst, x, y)
			}
			spent[pi] += time.Since(t0)
		}
	}
	vectorLanes = cpuVectorLanes()
	b.ReportMetric(0, "ns/op") // the sum over the bodies: no body's time
	flop := 2 * float64(m) * float64(k) * float64(n) * float64(inner) * float64(b.N)
	for pi, path := range paths {
		b.ReportMetric(flop/spent[pi].Seconds()/1e9, path+"-GFLOP/s")
	}
}
