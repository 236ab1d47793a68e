package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"marlperf/internal/tensor"
)

func TestMSELossKnownValues(t *testing.T) {
	pred := tensor.FromSlice(2, 1, []float64{1, 3})
	target := tensor.FromSlice(2, 1, []float64{0, 1})
	grad := tensor.New(2, 1)
	loss := MSELoss(grad, pred, target)
	if math.Abs(loss-2.5) > 1e-12 { // (1 + 4) / 2
		t.Fatalf("MSE loss = %v, want 2.5", loss)
	}
	wantGrad := tensor.FromSlice(2, 1, []float64{1, 2}) // 2·d/n
	if !tensor.ApproxEqual(grad, wantGrad, 1e-12) {
		t.Fatalf("MSE grad = %v, want %v", grad.Data, wantGrad.Data)
	}
}

func TestMSELossZeroWhenEqual(t *testing.T) {
	pred := tensor.FromSlice(3, 1, []float64{1, 2, 3})
	grad := tensor.New(3, 1)
	if loss := MSELoss(grad, pred, pred.Clone()); loss != 0 {
		t.Fatalf("MSE of identical tensors = %v, want 0", loss)
	}
}

func TestWeightedMSEMatchesUnweightedWithUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pred := tensor.New(8, 1)
	pred.RandNormal(rng, 0, 1)
	target := tensor.New(8, 1)
	target.RandNormal(rng, 0, 1)
	weights := make([]float64, 8)
	for i := range weights {
		weights[i] = 1
	}
	g1 := tensor.New(8, 1)
	g2 := tensor.New(8, 1)
	l1 := MSELoss(g1, pred, target)
	l2 := WeightedMSELoss(g2, pred, target, weights, nil)
	if math.Abs(l1-l2) > 1e-12 {
		t.Fatalf("weighted(1) loss %v != unweighted %v", l2, l1)
	}
	if !tensor.ApproxEqual(g1, g2, 1e-12) {
		t.Fatal("weighted(1) grad differs from unweighted")
	}
}

func TestWeightedMSETDErrors(t *testing.T) {
	pred := tensor.FromSlice(2, 1, []float64{1, -2})
	target := tensor.FromSlice(2, 1, []float64{0, 2})
	weights := []float64{0.5, 0.25}
	td := make([]float64, 2)
	grad := tensor.New(2, 1)
	WeightedMSELoss(grad, pred, target, weights, td)
	if td[0] != 1 || td[1] != 4 {
		t.Fatalf("TD errors = %v, want [1 4]", td)
	}
}

func TestWeightedMSEPanicsOnWeightCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WeightedMSELoss with wrong weight count did not panic")
		}
	}()
	WeightedMSELoss(tensor.New(2, 1), tensor.New(2, 1), tensor.New(2, 1), []float64{1}, nil)
}

func TestSoftmaxRowsEachRowSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := tensor.New(6, 5)
	src.RandNormal(rng, 0, 3)
	dst := tensor.New(6, 5)
	tensor.SoftmaxRows(dst, src)
	for i := 0; i < 6; i++ {
		var sum float64
		for _, v := range dst.Row(i) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

// Softmax backward must match the numerical Jacobian-vector product.
func TestSoftmaxBackwardRowsGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	logits := tensor.New(3, 5)
	logits.RandNormal(rng, 0, 1)
	// Downstream "loss": L = Σ c_ij · p_ij with random coefficients.
	coef := tensor.New(3, 5)
	coef.RandNormal(rng, 0, 1)

	probs := tensor.New(3, 5)
	tensor.SoftmaxRows(probs, logits)
	gradLogits := tensor.New(3, 5)
	SoftmaxBackwardRows(gradLogits, probs, coef)

	eps := 1e-6
	lossAt := func() float64 {
		p := tensor.New(3, 5)
		tensor.SoftmaxRows(p, logits)
		var l float64
		for i := range p.Data {
			l += coef.Data[i] * p.Data[i]
		}
		return l
	}
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		up := lossAt()
		logits.Data[i] = orig - eps
		down := lossAt()
		logits.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(gradLogits.Data[i]-num) > 1e-5 {
			t.Fatalf("logit grad %d: analytic %v vs numeric %v", i, gradLogits.Data[i], num)
		}
	}
}

func TestSampleGumbelFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dst := make([]float64, 10000)
	SampleGumbel(dst, rng)
	var mean float64
	for _, v := range dst {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("gumbel sample %v", v)
		}
		mean += v
	}
	mean /= float64(len(dst))
	// Gumbel(0,1) mean is the Euler–Mascheroni constant ≈ 0.5772.
	if math.Abs(mean-0.5772) > 0.05 {
		t.Fatalf("gumbel mean = %v, want ≈0.577", mean)
	}
}

func TestGumbelSoftmaxRowIsDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	logits := []float64{1, 2, 3, 4, 5}
	dst := make([]float64, 5)
	GumbelSoftmaxRow(dst, logits, 1.0, rng)
	var sum float64
	for _, v := range dst {
		if v < 0 || v > 1 {
			t.Fatalf("gumbel-softmax value %v outside [0,1]", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("gumbel-softmax sums to %v", sum)
	}
}

func TestGumbelSoftmaxLowTemperatureNearOneHot(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	logits := []float64{0, 0, 10, 0, 0}
	dst := make([]float64, 5)
	GumbelSoftmaxRow(dst, logits, 0.1, rng)
	if tensor.ArgMax(dst) != 2 {
		t.Fatalf("low-temperature sample should pick the dominant logit, got %v", dst)
	}
	if dst[2] < 0.99 {
		t.Fatalf("low-temperature sample should be near one-hot, got %v", dst)
	}
}

func TestGumbelSoftmaxPanicsOnBadTemperature(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GumbelSoftmaxRow with temperature 0 did not panic")
		}
	}()
	GumbelSoftmaxRow(make([]float64, 2), []float64{1, 2}, 0, rand.New(rand.NewSource(1)))
}

// TestGumbelSoftmaxRowsMatchesRowByRow: the batched draw is the row-wise one
// — the same probabilities, bit for bit, and every stream left in the state
// that many row-wise calls leave it in — at block sizes with every vector
// tail, logits with a NaN row included.
func TestGumbelSoftmaxRowsMatchesRowByRow(t *testing.T) {
	for rows := 1; rows <= 17; rows++ {
		for cols := 1; cols <= 9; cols++ {
			fill := rand.New(rand.NewSource(int64(100*rows + cols)))
			logits := tensor.New(rows, cols)
			logits.RandNormal(fill, 0, 3)
			if rows > 2 {
				logits.Row(1)[cols/2] = math.NaN()
			}
			tau := 0.5 + fill.Float64()
			streams := func() []*rand.Rand {
				rngs := make([]*rand.Rand, rows)
				for r := range rngs {
					rngs[r] = rand.New(rand.NewSource(int64(7*rows + r)))
				}
				return rngs
			}

			wantRngs, want := streams(), tensor.New(rows, cols)
			for r := 0; r < rows; r++ {
				GumbelSoftmaxRow(want.Row(r), logits.Row(r), tau, wantRngs[r])
			}
			gotRngs, got := streams(), tensor.New(rows, cols)
			got.Fill(math.Inf(-1)) // whatever dst held must not matter
			GumbelSoftmaxRows(got, logits, tau, gotRngs)

			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%dx%d: element %d is %v batched, %v row by row", rows, cols, i, got.Data[i], want.Data[i])
				}
			}
			for r := range wantRngs {
				if gotRngs[r].Int63() != wantRngs[r].Int63() {
					t.Fatalf("%dx%d: stream %d is in a different state after the batched draw", rows, cols, r)
				}
			}
		}
	}
}

func TestGumbelSoftmaxRowsPanicsOnBadShapes(t *testing.T) {
	rngs := []*rand.Rand{rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))}
	for name, fn := range map[string]func(){
		"shape":       func() { GumbelSoftmaxRows(tensor.New(2, 3), tensor.New(2, 4), 1, rngs) },
		"streams":     func() { GumbelSoftmaxRows(tensor.New(3, 3), tensor.New(3, 3), 1, rngs) },
		"temperature": func() { GumbelSoftmaxRows(tensor.New(2, 3), tensor.New(2, 3), 0, rngs) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: gumbel-softmax sampling frequencies follow the softmax
// distribution for moderate temperature (statistical smoke test), and MSE
// loss is always non-negative.
func TestMSENonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		pred := tensor.New(n, 1)
		pred.RandNormal(r, 0, 5)
		target := tensor.New(n, 1)
		target.RandNormal(r, 0, 5)
		grad := tensor.New(n, 1)
		return MSELoss(grad, pred, target) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
