// Package nn implements the small neural-network substrate the paper's
// trainers need: dense layers with ReLU activations, backpropagation, an
// Adam optimizer, target-network updates, and the softmax machinery used to
// train discrete-action actors. Everything is pure Go over internal/tensor.
package nn

import (
	"fmt"
	"math/rand"

	"marlperf/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward consumes a
// batch×in matrix and produces batch×out; Backward consumes the gradient of
// the loss with respect to the layer output and returns the gradient with
// respect to the layer input, accumulating parameter gradients internally.
// BackwardInput and BackwardParams are the two halves of Backward for
// callers that read only one of them: the first returns exactly the matrix
// Backward would and leaves the parameter gradients alone, the second
// accumulates exactly what Backward would and computes no input gradient.
type Layer interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(grad *tensor.Matrix) *tensor.Matrix
	BackwardInput(grad *tensor.Matrix) *tensor.Matrix
	BackwardParams(grad *tensor.Matrix)
	Params() []*tensor.Matrix
	Grads() []*tensor.Matrix
}

// Dense is a fully connected layer computing y = x·W + b.
type Dense struct {
	W *tensor.Matrix // in×out
	B *tensor.Matrix // 1×out

	// gradW and gradB are nil until Grads first runs: a layer that only
	// forwards (a target network, an acting policy) carries none.
	gradW *tensor.Matrix
	gradB *tensor.Matrix

	lastX      *tensor.Matrix // retained input for backward
	out        *tensor.Matrix // forward scratch, resized per batch
	gradIn     *tensor.Matrix // backward scratch, resized per batch
	wT         *tensor.Matrix // backward scratch for Wᵀ, rewritten per call: W moves every step
	gwScratch  *tensor.Matrix // backward scratch for xᵀ·grad
	sumScratch []float64      // backward scratch for column sums
}

// NewDense returns a Dense layer with Xavier-initialized weights and zero
// biases, matching the paper's TF2 MLP initialization.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{W: tensor.New(in, out), B: tensor.New(1, out)}
	d.W.XavierInit(rng, in, out)
	return d
}

// In returns the input width of the layer.
func (d *Dense) In() int { return d.W.Rows }

// Out returns the output width of the layer.
func (d *Dense) Out() int { return d.W.Cols }

// Forward computes y = x·W + b, retaining x for the backward pass.
func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	d.retain(x)
	// Reshape reuses the output backing across varying batch sizes; the
	// matmul overwrites every element, so stale contents are fine.
	d.out = tensor.Reshape(d.out, x.Rows, d.W.Cols)
	return tensor.MatMulBias(d.out, x, d.W, d.B.Data, false)
}

// forwardReLU is d.Forward followed by r.Forward, bit for bit, as one pass:
// bias and activation are applied to each output row while the product has
// it in L1, and the pre-activation matrix, which no backward reads, is never
// written. Both layers retain what their backward needs.
func (d *Dense) forwardReLU(x *tensor.Matrix, r *ReLU) *tensor.Matrix {
	d.retain(x)
	r.out = tensor.Reshape(r.out, x.Rows, d.W.Cols)
	return tensor.MatMulBias(r.out, x, d.W, d.B.Data, true)
}

func (d *Dense) retain(x *tensor.Matrix) {
	if x.Cols != d.W.Rows {
		panic(fmt.Sprintf("nn: Dense forward got width %d, want %d", x.Cols, d.W.Rows))
	}
	d.lastX = x
}

// Backward accumulates ∂L/∂W and ∂L/∂b and returns ∂L/∂x.
func (d *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	d.BackwardParams(grad)
	return d.BackwardInput(grad)
}

// BackwardParams accumulates ∂L/∂W and ∂L/∂b only. It panics on a layer
// without gradients (see Grads).
func (d *Dense) BackwardParams(grad *tensor.Matrix) {
	d.checkBackward(grad)
	if d.gradW == nil {
		panic("nn: Dense parameter backward through a layer without gradients")
	}
	// gradW += xᵀ·grad  (accumulated; ZeroGrads clears between steps)
	if d.gwScratch == nil {
		d.gwScratch = tensor.New(d.W.Rows, d.W.Cols)
	}
	tensor.MatMulTransA(d.gwScratch, d.lastX, grad)
	tensor.Add(d.gradW, d.gradW, d.gwScratch)
	// gradB += column sums of grad
	d.sumScratch = grad.SumRows(d.sumScratch)
	tensor.AXPY(d.gradB.Data, 1, d.sumScratch)
}

// BackwardInput returns ∂L/∂x = grad·Wᵀ only.
func (d *Dense) BackwardInput(grad *tensor.Matrix) *tensor.Matrix {
	return d.backwardInputCols(grad, 0, d.W.Rows)
}

// backwardInputCols returns columns [lo, hi) of ∂L/∂x: grad times the
// transpose of rows [lo, hi) of W, as a batch×(hi-lo) matrix with the bits
// of those columns of BackwardInput. The layer keeps the transposed weights
// between calls, so a step allocates nothing.
func (d *Dense) backwardInputCols(grad *tensor.Matrix, lo, hi int) *tensor.Matrix {
	d.checkBackward(grad)
	d.wT = tensor.TransposeRows(d.wT, d.W, lo, hi)
	d.gradIn = tensor.Reshape(d.gradIn, grad.Rows, hi-lo)
	return tensor.MatMul(d.gradIn, grad, d.wT)
}

// backwardInputReLU is r.Backward(d.BackwardInput(grad)), bit for bit, as one
// pass: each row of grad·Wᵀ is cleared where r, the activation below d,
// retained a zero, before it is stored — forwardReLU's twin. The ungated
// input gradient, which nothing else reads, is never written.
func (d *Dense) backwardInputReLU(grad *tensor.Matrix, r *ReLU) *tensor.Matrix {
	d.checkBackward(grad)
	if r.out == nil || r.out.Rows != grad.Rows || r.out.Cols != d.W.Rows {
		panic("nn: ReLU backward shape does not match forward")
	}
	d.wT = tensor.TransposeRows(d.wT, d.W, 0, d.W.Rows)
	r.gradIn = tensor.Reshape(r.gradIn, grad.Rows, d.W.Rows)
	return tensor.MatMulGated(r.gradIn, grad, d.wT, r.out)
}

func (d *Dense) checkBackward(grad *tensor.Matrix) {
	if d.lastX == nil {
		panic("nn: Dense backward before forward")
	}
	if grad.Rows != d.lastX.Rows || grad.Cols != d.W.Cols {
		panic(fmt.Sprintf("nn: Dense backward grad %dx%d, want %dx%d", grad.Rows, grad.Cols, d.lastX.Rows, d.W.Cols))
	}
}

// Params returns the trainable tensors (weights then bias).
func (d *Dense) Params() []*tensor.Matrix { return []*tensor.Matrix{d.W, d.B} }

// Grads returns the gradient tensors matching Params, allocating them (as
// zeros) on the first call.
func (d *Dense) Grads() []*tensor.Matrix {
	if d.gradW == nil {
		d.gradW, d.gradB = tensor.New(d.W.Rows, d.W.Cols), tensor.New(1, d.W.Cols)
	}
	return []*tensor.Matrix{d.gradW, d.gradB}
}

// ReLU is the rectified-linear activation layer. The output it retains
// between Forward and Backward doubles as the mask — an element was active
// exactly where the output is non-zero — so the output must not be modified
// in between (Dense retains its input under the same rule).
type ReLU struct {
	out    *tensor.Matrix
	gradIn *tensor.Matrix
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward computes max(x, 0), branch-free on the data (see tensor.ReLU).
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	r.out = tensor.Reshape(r.out, x.Rows, x.Cols)
	out := r.out.Data[:len(x.Data)]
	for i, v := range x.Data {
		out[i] = tensor.ReLU(v)
	}
	return r.out
}

// Backward zeroes the gradient where the forward input was non-positive,
// i.e. where the retained output is +0, again with a mask instead of a
// branch (tensor.ReLUGrad).
func (r *ReLU) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if r.out == nil || grad.Rows != r.out.Rows || grad.Cols != r.out.Cols {
		panic("nn: ReLU backward shape does not match forward")
	}
	r.gradIn = tensor.Reshape(r.gradIn, grad.Rows, grad.Cols)
	tensor.ReLUGrad(r.gradIn.Data, grad.Data, r.out.Data)
	return r.gradIn
}

// BackwardInput is Backward: ReLU has no parameters.
func (r *ReLU) BackwardInput(grad *tensor.Matrix) *tensor.Matrix { return r.Backward(grad) }

// BackwardParams does nothing: ReLU has no parameters.
func (r *ReLU) BackwardParams(*tensor.Matrix) {}

// Params returns nil; ReLU has no trainable parameters.
func (r *ReLU) Params() []*tensor.Matrix { return nil }

// Grads returns nil; ReLU has no trainable parameters.
func (r *ReLU) Grads() []*tensor.Matrix { return nil }
