package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// gradKinds are the gradients the optimizer tests run: ordinary values,
// zeros of both signs among them, subnormals, and magnitudes whose square
// overflows.
var gradKinds = []struct {
	name string
	draw func(rng *rand.Rand) float64
}{
	{"normal", func(rng *rand.Rand) float64 { return rng.NormFloat64() }},
	{"zeros", func(rng *rand.Rand) float64 {
		if rng.Intn(2) == 0 {
			return math.Copysign(0, rng.NormFloat64())
		}
		return rng.NormFloat64()
	}},
	{"subnormal", func(rng *rand.Rand) float64 { return rng.NormFloat64() * math.SmallestNonzeroFloat64 * 1e6 }},
	{"huge", func(rng *rand.Rand) float64 { return rng.NormFloat64() * 1e300 }},
}

// optimLengths are the slice lengths the optimizer tests run: every length
// up to two vectors and one past them, and a layer's worth that is not a
// whole number of vectors.
var optimLengths = func() []int {
	var ns []int
	for n := 1; n <= 17; n++ {
		ns = append(ns, n)
	}
	return append(ns, 4033)
}()

// guarded returns a slice of n elements from a buffer that holds a NaN
// canary on either side of it, and a check that both are untouched.
func guarded(t *testing.T, n int) ([]float64, func(what string)) {
	buf := make([]float64, n+2)
	buf[0], buf[n+1] = math.NaN(), math.NaN()
	return buf[1 : n+1], func(what string) {
		t.Helper()
		if !math.IsNaN(buf[0]) || !math.IsNaN(buf[n+1]) {
			t.Fatalf("%s: wrote outside its %d elements", what, n)
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d of %d = %x (%g), want %x (%g)", what, i, len(want),
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestOptimizerStepsMatchGoLoops: on every body, AdamStep and Polyak give
// the bits of their Go loops, at every length up to two vectors past one and
// at 4 033, for ordinary, zero, subnormal and huge gradients, at the first
// step (bias corrections 0.1 and 0.001) and at the millionth (both ≈ 1), and
// write nothing outside their slices.
func TestOptimizerStepsMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, path := range kernelPaths(t) {
		setKernelPath(t, path)
		for _, n := range optimLengths {
			for _, kind := range gradKinds {
				for _, step := range []float64{1, 1e6} {
					s := AdamScalars{LR: 0.01, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
					s.Correct1, s.Correct2 = 1-math.Pow(s.Beta1, step), 1-math.Pow(s.Beta2, step)
					p, pOK := guarded(t, n)
					g, gOK := guarded(t, n)
					m, mOK := guarded(t, n)
					v, vOK := guarded(t, n)
					for j := range p {
						p[j], g[j] = rng.NormFloat64(), kind.draw(rng)
						m[j], v[j] = 0.1*kind.draw(rng), math.Abs(0.01*kind.draw(rng))
					}
					wp, wm, wv := append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), v...)
					adamLoop(wp, g, wm, wv, s)
					AdamStep(p, g, m, v, s)
					what := path + " AdamStep " + kind.name
					for _, ok := range []func(string){pOK, gOK, mOK, vOK} {
						ok(what)
					}
					sameBits(t, what+" m", m, wm)
					sameBits(t, what+" v", v, wv)
					sameBits(t, what+" p", p, wp)

					dst, dOK := guarded(t, n)
					copy(dst, g)
					want := append([]float64(nil), dst...)
					polyakLoop(want, p, 0.01)
					Polyak(dst, p, 0.01)
					dOK(path + " Polyak")
					sameBits(t, path+" Polyak "+kind.name, dst, want)
				}
			}
		}
	}
}

// TestOptimizerLoopsRoundEveryOperation: the Go loop rounds each product
// before the add, as the resident bodies do, whatever the compiler may fuse
// (GOAMD64=v3 may fuse an unconverted x·y + z). With τ = 1 − x and
// x = 1 + 2⁻³⁰, τ·src is −(1 + 2⁻²⁹) exactly and (1−τ)·dst = x·x rounds to
// 1 + 2⁻²⁹, so the rounded sum is +0; either product fused into the add
// would leave 2⁻⁶⁰.
func TestOptimizerLoopsRoundEveryOperation(t *testing.T) {
	x := 1 + math.Ldexp(1, -30)
	dst := []float64{x}
	polyakLoop(dst, []float64{math.Ldexp(1, 30) + 2}, 1-x)
	if dst[0] != 0 {
		t.Fatalf("polyakLoop = %g, want 0: a product was fused into its add", dst[0])
	}
}
