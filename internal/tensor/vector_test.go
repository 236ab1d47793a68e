package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAXPY(t *testing.T) {
	dst := []float64{1, 2, 3}
	AXPY(dst, 2, []float64{10, 20, 30})
	want := []float64{21, 42, 63}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("AXPY = %v, want %v", dst, want)
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	logits := []float64{1, 2, 3, 4, 5}
	out := make([]float64, 5)
	Softmax(out, logits)
	var sum float64
	for _, v := range out {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax value %v outside (0,1)", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sums to %v, want 1", sum)
	}
	// Monotone: larger logit ⇒ larger probability.
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Fatalf("softmax not monotone at %d: %v", i, out)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := []float64{1000, 1001, 1002}
	out := make([]float64, 3)
	Softmax(out, logits)
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax produced %v on large logits", v)
		}
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	Softmax(nil, nil) // must not panic
}

// Property: softmax is invariant to adding a constant to all logits.
func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		logits := make([]float64, n)
		shifted := make([]float64, n)
		c := r.NormFloat64() * 10
		for i := range logits {
			logits[i] = r.NormFloat64() * 3
			shifted[i] = logits[i] + c
		}
		a := make([]float64, n)
		b := make([]float64, n)
		Softmax(a, logits)
		Softmax(b, shifted)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 5, 3}); got != 1 {
		t.Fatalf("ArgMax = %d, want 1", got)
	}
	if got := ArgMax([]float64{7, 7}); got != 0 {
		t.Fatalf("ArgMax ties = %d, want first index 0", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Fatalf("ArgMax(nil) = %d, want -1", got)
	}
}

// TestReLUGradMatchesReLU: at every short length ReLUGrad keeps the gradient
// exactly where ReLU kept the input — where the retained output has any bit
// set, a NaN and a denormal included — and writes +0 elsewhere, whatever the
// gradient there was; words beyond the length stay as they were; dst may be
// grad. And the fused form is the same pass: MatMulGated against a
// retained output has the bits of the product followed by ReLUGrad, on each
// body, over a width for every kernel (one masked panel, a wide panel whose
// last vector overlaps, a wide panel and a masked one) and a row count that
// leaves the narrow kernel single rows after its groups of eight, with NaN
// and -0 products among the gated and the kept.
func TestReLUGradMatchesReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inputs := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(math.NaN(), -1)}
	grads := []float64{math.Inf(-1), math.NaN(), math.Copysign(0, -1), -3, 7}
	for n := 0; n <= 19; n++ {
		out, grad, dst := make([]float64, n), make([]float64, n), make([]float64, n+1)
		for i := range out {
			out[i] = ReLU(inputs[rng.Intn(len(inputs))])
			if rng.Intn(3) == 0 {
				out[i] = ReLU(rng.NormFloat64())
			}
			grad[i] = grads[rng.Intn(len(grads))]
		}
		dst[n] = 42
		ReLUGrad(dst[:n], grad, out)
		inPlace := append([]float64(nil), grad...)
		ReLUGrad(inPlace, inPlace, out)
		for i := range out {
			var want uint64
			if math.Float64bits(out[i]) != 0 {
				want = math.Float64bits(grad[i])
			}
			if got := math.Float64bits(dst[i]); got != want {
				t.Fatalf("n=%d: element %d (output %v, gradient %v) = %x, want %x", n, i, out[i], grad[i], got, want)
			}
			if got := math.Float64bits(inPlace[i]); got != want {
				t.Fatalf("n=%d: in place, element %d = %x, want %x", n, i, got, want)
			}
		}
		if dst[n] != 42 {
			t.Fatalf("n=%d: the word after dst was overwritten", n)
		}
	}

	for _, path := range kernelPaths(t) {
		setKernelPath(t, path)
		for _, shape := range [][3]int{{1, 5, 64}, {11, 64, 5}, {11, 7, 63}, {67, 64, 69}, {1024, 64, 64}} {
			m, k, n := shape[0], shape[1], shape[2]
			g, w, out := New(m, k), New(k, n), New(m, n)
			fillOperand(g, rng, halfZeros)
			fillOperand(w, rng, dense)
			g.Set(m/2, k-1, math.NaN())           // a NaN row of products
			w.Set(k-1, n/2, math.Copysign(0, -1)) // and a -0 among them
			for i := range out.Data {
				out.Data[i] = ReLU(inputs[rng.Intn(len(inputs))])
				if rng.Intn(2) == 0 {
					out.Data[i] = ReLU(rng.NormFloat64())
				}
			}
			want := MatMul(New(m, n), g, w)
			ReLUGrad(want.Data, want.Data, out.Data)
			got := MatMulGated(poison(oddMatrix(m, n)), g, w, out)
			if i, ok := bitsEqual(got, want); !ok {
				t.Fatalf("path=%s %dx%dx%d: gated element %d (output %v) = %x, want %x", path, m, k, n, i, out.Data[i],
					math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
			matMulRows(poison(got), g, w, nil, false, out, m/3, m) // any split of the rows
			matMulRows(got, g, w, nil, false, out, 0, m/3)
			if i, ok := bitsEqual(got, want); !ok {
				t.Fatalf("path=%s %dx%dx%d: gated in two calls, element %d = %x, want %x", path, m, k, n, i,
					math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
	}
}
