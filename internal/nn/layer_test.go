package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"marlperf/internal/tensor"
)

func TestDenseForwardKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 2, rng)
	d.W.CopyFrom(tensor.FromSlice(2, 2, []float64{1, 2, 3, 4}))
	d.B.CopyFrom(tensor.FromSlice(1, 2, []float64{10, 20}))
	x := tensor.FromSlice(1, 2, []float64{1, 1})
	y := d.Forward(x)
	want := tensor.FromSlice(1, 2, []float64{14, 26})
	if !tensor.ApproxEqual(y, want, 1e-12) {
		t.Fatalf("Dense forward = %v, want %v", y.Data, want.Data)
	}
}

func TestDenseForwardWidthMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(3, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("Dense forward with wrong width did not panic")
		}
	}()
	d.Forward(tensor.New(1, 2))
}

func TestDenseBackwardBeforeForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("Dense backward before forward did not panic")
		}
	}()
	d.Backward(tensor.New(1, 2))
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice(1, 4, []float64{-1, 0, 2, -3})
	y := r.Forward(x)
	want := tensor.FromSlice(1, 4, []float64{0, 0, 2, 0})
	if !tensor.ApproxEqual(y, want, 0) {
		t.Fatalf("ReLU forward = %v", y.Data)
	}
	g := r.Backward(tensor.FromSlice(1, 4, []float64{5, 5, 5, 5}))
	wantG := tensor.FromSlice(1, 4, []float64{0, 0, 5, 0})
	if !tensor.ApproxEqual(g, wantG, 0) {
		t.Fatalf("ReLU backward = %v", g.Data)
	}
}

func TestReLUHasNoParams(t *testing.T) {
	r := NewReLU()
	if r.Params() != nil || r.Grads() != nil {
		t.Fatal("ReLU should report no parameters")
	}
}

// numericalGrad computes ∂loss/∂θ for every parameter of the network by
// central differences, where loss = MSE(net(x), target).
func numericalGrad(net *Network, x, target *tensor.Matrix, eps float64) [][]float64 {
	lossAt := func() float64 {
		out := net.Forward(x)
		g := tensor.New(out.Rows, out.Cols)
		return MSELoss(g, out, target)
	}
	params := net.Params()
	grads := make([][]float64, len(params))
	for pi, p := range params {
		grads[pi] = make([]float64, len(p.Data))
		for j := range p.Data {
			orig := p.Data[j]
			p.Data[j] = orig + eps
			up := lossAt()
			p.Data[j] = orig - eps
			down := lossAt()
			p.Data[j] = orig
			grads[pi][j] = (up - down) / (2 * eps)
		}
	}
	return grads
}

func TestMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewMLP(rng, 4, 8, 8, 1)
	x := tensor.New(5, 4)
	x.RandNormal(rng, 0, 1)
	target := tensor.New(5, 1)
	target.RandNormal(rng, 0, 1)

	out := net.Forward(x)
	gradOut := tensor.New(out.Rows, out.Cols)
	MSELoss(gradOut, out, target)
	net.ZeroGrads()
	net.Backward(gradOut)
	analytic := net.Grads()

	numeric := numericalGrad(net, x, target, 1e-6)
	for pi := range analytic {
		for j := range analytic[pi].Data {
			a := analytic[pi].Data[j]
			n := numeric[pi][j]
			if math.Abs(a-n) > 1e-4*(1+math.Abs(n)) {
				t.Fatalf("param %d elem %d: analytic %v vs numeric %v", pi, j, a, n)
			}
		}
	}
}

func TestMLPBackwardInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewMLP(rng, 3, 6, 1)
	x := tensor.New(2, 3)
	x.RandNormal(rng, 0, 1)
	target := tensor.New(2, 1)
	target.RandNormal(rng, 0, 1)

	out := net.Forward(x)
	gradOut := tensor.New(out.Rows, out.Cols)
	MSELoss(gradOut, out, target)
	net.ZeroGrads()
	gin := net.Backward(gradOut)

	// Numerical input gradient.
	eps := 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		o1 := net.Forward(x)
		g1 := tensor.New(o1.Rows, o1.Cols)
		up := MSELoss(g1, o1, target)
		x.Data[i] = orig - eps
		o2 := net.Forward(x)
		down := MSELoss(g1, o2, target)
		x.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(gin.Data[i]-num) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("input grad %d: analytic %v vs numeric %v", i, gin.Data[i], num)
		}
	}
}

func TestNewMLPPanicsOnTooFewWidths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMLP with one width did not panic")
		}
	}()
	NewMLP(rand.New(rand.NewSource(1)), 4)
}

func TestNumParamsPaperMLP(t *testing.T) {
	// Paper: two-layer ReLU MLP with 64 units per layer. For a 16-input,
	// 5-output actor: 16·64+64 + 64·64+64 + 64·5+5 parameters.
	rng := rand.New(rand.NewSource(9))
	net := NewMLP(rng, 16, 64, 64, 5)
	want := 16*64 + 64 + 64*64 + 64 + 64*5 + 5
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestHardCopyAndSoftUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := NewMLP(rng, 3, 4, 2)
	dst := NewMLP(rng, 3, 4, 2)
	HardCopy(dst, src)
	for i, p := range dst.Params() {
		if !tensor.ApproxEqual(p, src.Params()[i], 0) {
			t.Fatal("HardCopy did not copy parameters")
		}
	}
	// Perturb src, then soft-update with τ=0.5 and check the midpoint.
	before := dst.Params()[0].At(0, 0)
	src.Params()[0].Set(0, 0, before+2)
	SoftUpdate(dst, src, 0.5)
	got := dst.Params()[0].At(0, 0)
	want := 0.5*(before+2) + 0.5*before
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("SoftUpdate got %v, want %v", got, want)
	}
}

func TestSoftUpdateTauZeroIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := NewMLP(rng, 2, 3, 1)
	dst := NewMLP(rng, 2, 3, 1)
	snapshot := dst.Params()[0].Clone()
	SoftUpdate(dst, src, 0)
	if !tensor.ApproxEqual(dst.Params()[0], snapshot, 0) {
		t.Fatal("SoftUpdate with τ=0 changed the target")
	}
}

func TestClipGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewMLP(rng, 2, 2, 1)
	for _, g := range net.Grads() {
		g.Fill(10)
	}
	pre := net.ClipGradients(0.5)
	if pre <= 0.5 {
		t.Fatalf("expected pre-clip norm > 0.5, got %v", pre)
	}
	var sq float64
	for _, g := range net.Grads() {
		for _, v := range g.Data {
			sq += v * v
		}
	}
	if post := math.Sqrt(sq); math.Abs(post-0.5) > 1e-9 {
		t.Fatalf("post-clip norm = %v, want 0.5", post)
	}
}

func TestClipGradientsUnderLimitUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewMLP(rng, 2, 2, 1)
	for _, g := range net.Grads() {
		g.Fill(1e-4)
	}
	snapshot := net.Grads()[0].Clone()
	net.ClipGradients(100)
	if !tensor.ApproxEqual(net.Grads()[0], snapshot, 0) {
		t.Fatal("gradients under the limit should not be scaled")
	}
}

func TestAdamReducesLossOnRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewMLP(rng, 2, 16, 1)
	opt := NewAdam(net, 0.01)

	// Learn y = x0 + 2·x1 on fixed data.
	x := tensor.New(32, 2)
	x.RandNormal(rng, 0, 1)
	target := tensor.New(32, 1)
	for i := 0; i < 32; i++ {
		target.Set(i, 0, x.At(i, 0)+2*x.At(i, 1))
	}
	gradOut := tensor.New(32, 1)

	lossAt := func() float64 {
		out := net.Forward(x)
		return MSELoss(gradOut, out, target)
	}
	first := lossAt()
	for step := 0; step < 300; step++ {
		out := net.Forward(x)
		MSELoss(gradOut, out, target)
		net.ZeroGrads()
		net.Backward(gradOut)
		opt.Step()
	}
	last := lossAt()
	if last > first/10 {
		t.Fatalf("Adam failed to learn: first loss %v, last loss %v", first, last)
	}
	if opt.StepCount() != 300 {
		t.Fatalf("StepCount = %d, want 300", opt.StepCount())
	}
}

func TestDenseGradAccumulatesAcrossBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	d := NewDense(2, 1, rng)
	d.Grads() // a layer gets gradients when something trains it
	x := tensor.FromSlice(1, 2, []float64{1, 1})
	g := tensor.FromSlice(1, 1, []float64{1})
	d.Forward(x)
	d.Backward(g)
	once := d.gradW.Clone()
	d.Forward(x)
	d.Backward(g)
	twice := d.gradW
	for i := range once.Data {
		if math.Abs(twice.Data[i]-2*once.Data[i]) > 1e-12 {
			t.Fatalf("gradients should accumulate: %v vs 2×%v", twice.Data[i], once.Data[i])
		}
	}
}

// TestReLUMatchesBranchingDefinition compares the mask-based ReLU with the
// definition it replaced (out = v if v > 0 else +0; gradIn = g where v > 0
// else +0), bit for bit, over signed zeros, denormals, infinities and random
// values. NaN inputs are excluded: the old code mapped them to 0, the mask
// keeps a NaN whose sign bit is clear.
func TestReLUMatchesBranchingDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64}
	for len(xs) < 256 {
		xs = append(xs, rng.NormFloat64())
	}
	gs := make([]float64, len(xs))
	for i := range gs {
		gs[i] = rng.NormFloat64()
	}
	gs[8], gs[9], gs[10] = math.Inf(-1), math.NaN(), math.Copysign(0, -1)
	r := NewReLU()
	out := r.Forward(tensor.FromSlice(4, len(xs)/4, xs))
	gradIn := r.BackwardInput(tensor.FromSlice(4, len(xs)/4, gs))
	for i, v := range xs {
		wantOut, wantGrad := 0.0, 0.0
		if v > 0 {
			wantOut, wantGrad = v, gs[i]
		}
		if math.Float64bits(out.Data[i]) != math.Float64bits(wantOut) {
			t.Fatalf("ReLU(%v) = %v (%x), want %v", v, out.Data[i], math.Float64bits(out.Data[i]), wantOut)
		}
		if math.Float64bits(gradIn.Data[i]) != math.Float64bits(wantGrad) {
			t.Fatalf("ReLU'(%v)·%v = %v (%x), want %v", v, gs[i], gradIn.Data[i], math.Float64bits(gradIn.Data[i]), wantGrad)
		}
	}
}

// requireSameBits fails unless got and want have one shape and the same bits.
func requireSameBits(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestSelectiveBackwardMatchesBackward: Backward, which takes a Dense and the
// ReLU below it in one gated product, returns and accumulates the bits of
// the layers' own Backward calls one after the other; BackwardInput returns
// the bits Backward returns and touches no parameter gradient;
// BackwardParams accumulates the bits Backward accumulates, on top of
// whatever was there. Five rows are single rows to the narrow kernel, twelve
// a group of eight and four.
func TestSelectiveBackwardMatchesBackward(t *testing.T) {
	for _, rows := range []int{5, 12} {
		testSelectiveBackward(t, rows)
	}
}

func testSelectiveBackward(t *testing.T, rows int) {
	rng := rand.New(rand.NewSource(22))
	ref := NewMLP(rng, 7, 9, 6, 3)
	x, grad := tensor.New(rows, 7), tensor.New(rows, 3)
	x.RandNormal(rng, 0, 1)
	grad.RandNormal(rng, 0, 1)
	// Non-zero starting gradients: accumulation, not overwrite, is the contract.
	seedGrads := func(net *Network) {
		for pi, g := range net.Grads() {
			for j := range g.Data {
				g.Data[j] = float64(pi+1) + 0.25*float64(j)
			}
		}
	}

	byLayer := twin(ref, 7, 9, 6, 3)
	seedGrads(byLayer)
	byLayer.Forward(x)
	wantIn := grad
	for i := len(byLayer.Layers) - 1; i >= 0; i-- {
		wantIn = byLayer.Layers[i].Backward(wantIn)
	}

	seedGrads(ref)
	ref.Forward(x)
	requireSameBits(t, "Backward result", ref.Backward(grad), wantIn)
	for i, g := range ref.Grads() {
		requireSameBits(t, "Backward gradient", g, byLayer.Grads()[i])
	}

	inOnly := twin(ref, 7, 9, 6, 3)
	seedGrads(inOnly)
	before := make([]*tensor.Matrix, len(inOnly.Grads()))
	for i, g := range inOnly.Grads() {
		before[i] = g.Clone()
	}
	inOnly.Forward(x)
	requireSameBits(t, "BackwardInput result", inOnly.BackwardInput(grad), wantIn)
	// A column range of the input gradient, computed alone, has the bits of
	// that range of the whole: ranges at both edges, one inside, one empty.
	for _, r := range [][2]int{{0, 7}, {0, 1}, {2, 5}, {6, 7}, {3, 3}} {
		lo, hi := r[0], r[1]
		want := tensor.SliceCols(tensor.New(rows, hi-lo), wantIn, lo, hi)
		requireSameBits(t, fmt.Sprintf("BackwardInputCols [%d,%d)", lo, hi), inOnly.BackwardInputCols(grad, lo, hi), want)
	}
	for i, g := range inOnly.Grads() {
		requireSameBits(t, "parameter gradient after BackwardInput", g, before[i])
	}

	paramsOnly := twin(ref, 7, 9, 6, 3)
	seedGrads(paramsOnly)
	paramsOnly.Forward(x)
	paramsOnly.BackwardParams(grad)
	for i, g := range paramsOnly.Grads() {
		requireSameBits(t, "BackwardParams gradient", g, ref.Grads()[i])
	}
}

// TestFusedForwardMatchesLayerByLayer: Network.Forward runs Dense+ReLU pairs
// as one pass; the result, and everything a following backward computes from
// the state the fused pass retains, must equal calling each layer in turn.
func TestFusedForwardMatchesLayerByLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fused := NewMLP(rng, 7, 9, 6, 3)
	plain := twin(fused, 7, 9, 6, 3)
	x, grad := tensor.New(5, 7), tensor.New(5, 3)
	x.RandNormal(rng, 0, 1)
	grad.RandNormal(rng, 0, 1)

	want := x
	for _, l := range plain.Layers {
		want = l.Forward(want)
	}
	got := fused.Forward(x)
	requireSameBits(t, "fused output", got, want)
	requireSameBits(t, "input gradient after fused forward", fused.Backward(grad), plain.Backward(grad))
	for i, g := range fused.Grads() {
		requireSameBits(t, "parameter gradient after fused forward", g, plain.Grads()[i])
	}
}
