package nn

import (
	"fmt"
	"math"
	"math/rand"

	"marlperf/internal/tensor"
)

// MSELoss computes the mean-squared-error loss between pred and target
// (both batch×1 for the critics) and writes ∂L/∂pred into grad.
// It returns the scalar loss.
func MSELoss(grad, pred, target *tensor.Matrix) float64 {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic(fmt.Sprintf("nn: MSELoss shape mismatch %dx%d vs %dx%d", pred.Rows, pred.Cols, target.Rows, target.Cols))
	}
	n := float64(len(pred.Data))
	var loss float64
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n
}

// WeightedMSELoss is MSELoss with a per-sample importance weight w[i]
// (PER / Lemma-1 compensation). pred and target are batch×1; weights has
// one entry per row. It also writes the raw TD errors |pred-target| into
// tdAbs when non-nil, which the PER sampler uses to refresh priorities.
func WeightedMSELoss(grad, pred, target *tensor.Matrix, weights, tdAbs []float64) float64 {
	if pred.Cols != 1 || target.Cols != 1 {
		panic("nn: WeightedMSELoss expects batch×1 inputs")
	}
	if pred.Rows != target.Rows || len(weights) != pred.Rows {
		panic(fmt.Sprintf("nn: WeightedMSELoss got %d preds, %d targets, %d weights", pred.Rows, target.Rows, len(weights)))
	}
	n := float64(pred.Rows)
	var loss float64
	for i := 0; i < pred.Rows; i++ {
		d := pred.Data[i] - target.Data[i]
		if tdAbs != nil {
			tdAbs[i] = math.Abs(d)
		}
		w := weights[i]
		loss += w * d * d
		grad.Data[i] = 2 * w * d / n
	}
	return loss / n
}

// SoftmaxBackwardRows converts ∂L/∂probs into ∂L/∂logits for a row-wise
// softmax: ∂L/∂z_j = p_j·(g_j − Σ_k p_k·g_k). probs must hold the forward
// softmax output and may be a column view. dst may be gradProbs, and must
// not overlap either matrix otherwise.
func SoftmaxBackwardRows(dst, probs, gradProbs *tensor.Matrix) *tensor.Matrix {
	if dst.Rows != probs.Rows || dst.Cols != probs.Cols || gradProbs.Rows != probs.Rows || gradProbs.Cols != probs.Cols {
		panic("nn: SoftmaxBackwardRows shape mismatch")
	}
	if tensor.Overlap(dst, probs) || dst != gradProbs && tensor.Overlap(dst, gradProbs) {
		panic("nn: SoftmaxBackwardRows dst overlaps an operand")
	}
	for i := 0; i < probs.Rows; i++ {
		p := probs.Row(i)
		g := gradProbs.Row(i)
		d := dst.Row(i)
		dot := tensor.Dot(p, g)
		for j := range p {
			d[j] = p[j] * (g[j] - dot)
		}
	}
	return dst
}

// gumbel turns a uniform draw from [0, 1) into Gumbel(0,1) noise:
// -log(-log(u)). The small offsets keep the logs finite.
func gumbel(u float64) float64 {
	return -math.Log(-math.Log(u+1e-20) + 1e-20)
}

// SampleGumbel fills dst with Gumbel(0,1) noise, one draw from rng each.
func SampleGumbel(dst []float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] = gumbel(rng.Float64())
	}
}

// GumbelSoftmaxRow produces a differentiable sample from a categorical
// distribution: softmax((logits + gumbel)/temperature). The reference
// MADDPG implementation uses this relaxation for its discrete particle-env
// actions. dst may alias logits.
func GumbelSoftmaxRow(dst, logits []float64, temperature float64, rng *rand.Rand) {
	if len(dst) != len(logits) {
		panic("nn: GumbelSoftmaxRow length mismatch")
	}
	if temperature <= 0 {
		panic("nn: GumbelSoftmaxRow temperature must be positive")
	}
	for i, l := range logits {
		dst[i] = (l + gumbel(rng.Float64())) / temperature
	}
	tensor.Softmax(dst, dst)
}

// GumbelSoftmaxRows is GumbelSoftmaxRow over every row of logits, row r
// drawing from rngs[r] — the same draws in the same order from each stream,
// and the same bits in dst, as that many row-wise calls — with the two
// logarithms of the noise taken over the whole block at once (tensor.Log,
// which is math.Log packed eight to a vector) and the softmax over the
// whole block at once too (tensor.SoftmaxRows). dst holds the noise on the
// way and must not overlap logits. Both are dense.
func GumbelSoftmaxRows(dst, logits *tensor.Matrix, temperature float64, rngs []*rand.Rand) {
	if dst.Rows != logits.Rows || dst.Cols != logits.Cols || len(rngs) != logits.Rows {
		panic(fmt.Sprintf("nn: GumbelSoftmaxRows got %dx%d probs, %dx%d logits, %d streams", dst.Rows, dst.Cols, logits.Rows, logits.Cols, len(rngs)))
	}
	if temperature <= 0 {
		panic("nn: GumbelSoftmaxRows temperature must be positive")
	}
	if tensor.Overlap(dst, logits) {
		panic("nn: GumbelSoftmaxRows dst overlaps logits")
	}
	if dst.Pitch() != dst.Cols || logits.Pitch() != logits.Cols {
		panic("nn: GumbelSoftmaxRows takes dense matrices only")
	}
	noise, cols := dst.Data, dst.Cols
	for r, rng := range rngs {
		for c := r * cols; c < (r+1)*cols; c++ {
			noise[c] = rng.Float64() + 1e-20
		}
	}
	tensor.Log(noise, noise)
	for i, v := range noise {
		noise[i] = -v + 1e-20
	}
	tensor.Log(noise, noise)
	for i, l := range logits.Data {
		noise[i] = (l + -noise[i]) / temperature
	}
	tensor.SoftmaxRows(dst, dst)
}
