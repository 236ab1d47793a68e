package nn

import (
	"fmt"
	"math"
	"math/rand"

	"marlperf/internal/tensor"
)

// Network is a sequential stack of layers. The paper's actors and critics
// are two-hidden-layer ReLU MLPs with 64 units per layer.
type Network struct {
	Layers []Layer

	// params/grads cache the flattened tensor lists so hot-path callers
	// (ZeroGrads, ClipGradients, optimizer steps) do not allocate a slice
	// per call. Built lazily on first use; Layers must not change after.
	params []*tensor.Matrix
	grads  []*tensor.Matrix
}

// NewMLP builds a dense network with the given layer widths, inserting a
// ReLU after every dense layer except the last (linear output head).
// widths must contain at least an input and an output width.
func NewMLP(rng *rand.Rand, widths ...int) *Network {
	if len(widths) < 2 {
		panic("nn: NewMLP needs at least input and output widths")
	}
	net := &Network{}
	for i := 0; i+1 < len(widths); i++ {
		net.Layers = append(net.Layers, NewDense(widths[i], widths[i+1], rng))
		if i+2 < len(widths) {
			net.Layers = append(net.Layers, NewReLU())
		}
	}
	return net
}

// Forward runs the batch through every layer and returns the output.
// The returned matrix is owned by the final layer and is overwritten by the
// next Forward call. A Dense layer directly followed by a ReLU runs as one
// fused pass with the same result as the two Forward calls.
func (n *Network) Forward(x *tensor.Matrix) *tensor.Matrix {
	return n.forward(x, len(n.Layers))
}

// ForwardHidden runs the batch through every layer below the head — the
// last layer, a Dense directly above a ReLU — and returns that ReLU's
// output, with the bits Forward leaves there. It is the forward
// BackwardInputColsConst differentiates: the head's own output is not
// computed.
func (n *Network) ForwardHidden(x *tensor.Matrix) *tensor.Matrix {
	n.head()
	return n.forward(x, len(n.Layers)-1)
}

// forward runs x through layers [0, end).
func (n *Network) forward(x *tensor.Matrix, end int) *tensor.Matrix {
	for i := 0; i < end; i++ {
		if d, ok := n.Layers[i].(*Dense); ok && i+1 < end {
			if r, ok := n.Layers[i+1].(*ReLU); ok {
				x = d.forwardReLU(x, r)
				i++
				continue
			}
		}
		x = n.Layers[i].Forward(x)
	}
	return x
}

// Backward propagates the output gradient through every layer in reverse and
// returns the gradient with respect to the network input.
func (n *Network) Backward(grad *tensor.Matrix) *tensor.Matrix {
	n.Grads()
	for i := len(n.Layers) - 1; i >= 0; {
		n.backwardParams(i, grad)
		grad, i = n.backwardInput(i, grad)
	}
	return grad
}

// backwardParams accumulates layer i's parameter gradients from grad, the
// gradient at its output. A Dense directly below a ReLU receives the ReLU's
// gated gradient, about half of it +0, and is told so: its weight gradient
// then takes its multipliers from grad (Dense.backwardParams). Only the
// first layer is such a Dense with data below it; the others are handed
// their inputs, a ReLU's output with the same zeros, as multipliers anyway.
func (n *Network) backwardParams(i int, grad *tensor.Matrix) {
	if d, ok := n.Layers[i].(*Dense); ok && i == 0 && len(n.Layers) > 1 {
		if _, ok := n.Layers[1].(*ReLU); ok {
			d.backwardParams(grad, true)
			return
		}
	}
	n.Layers[i].BackwardParams(grad)
}

// backwardInput takes grad, the gradient at the output of layer i, down
// through that layer and returns it with the index of the layer it has
// reached. A Dense directly after a ReLU takes both in one fused pass with
// the same result as the two BackwardInput calls, as Forward does on the way
// up.
func (n *Network) backwardInput(i int, grad *tensor.Matrix) (*tensor.Matrix, int) {
	if d, ok := n.Layers[i].(*Dense); ok && i > 0 {
		if r, ok := n.Layers[i-1].(*ReLU); ok {
			return d.backwardInputReLU(grad, r), i - 2
		}
	}
	return n.Layers[i].BackwardInput(grad), i - 1
}

// BackwardInput returns the same input gradient as Backward and leaves every
// parameter gradient untouched: no xᵀ·grad product is computed. It is for
// differentiating through a network whose own parameters are not being
// trained in this step (the critic, during the actor update).
func (n *Network) BackwardInput(grad *tensor.Matrix) *tensor.Matrix {
	for i := len(n.Layers) - 1; i >= 0; {
		grad, i = n.backwardInput(i, grad)
	}
	return grad
}

// BackwardInputColsConst returns columns [lo, hi) of what BackwardInput
// returns, bit for bit, for an output gradient that holds c in every row of
// a one-output head, after ForwardHidden, without computing the others: the
// first layer, which must be a Dense, multiplies by those rows of its
// weights only. The head's input gradient is c times its weights in every
// row, gated row by row by the ReLU below it (tensor.MatMulGatedConst), so
// neither the head's forward nor a column of c's is computed. It is for a
// caller that differentiates the mean of the output with respect to a slice
// of the input (one agent's action inside the critic's joint input).
func (n *Network) BackwardInputColsConst(c float64, lo, hi int) *tensor.Matrix {
	d, r := n.head()
	if d.W.Cols != 1 {
		panic(fmt.Sprintf("nn: BackwardInputColsConst through a %d-output head", d.W.Cols))
	}
	h := r.out
	if h == nil || h.Cols != d.W.Rows {
		panic("nn: BackwardInputColsConst before ForwardHidden")
	}
	r.gradIn = tensor.Reshape(r.gradIn, h.Rows, h.Cols)
	grad := tensor.MatMulGatedConst(r.gradIn, c, d.W.Data, h)
	for i := len(n.Layers) - 3; i > 0; {
		grad, i = n.backwardInput(i, grad)
	}
	return n.Layers[0].(*Dense).backwardInputCols(grad, lo, hi)
}

// head returns the network's last layer, which must be a Dense directly
// above a ReLU, and that ReLU.
func (n *Network) head() (*Dense, *ReLU) {
	top := len(n.Layers) - 1
	if top >= 2 {
		d, ok := n.Layers[top].(*Dense)
		r, ok2 := n.Layers[top-1].(*ReLU)
		if ok && ok2 {
			return d, r
		}
	}
	panic("nn: the network's head is not a Dense above a ReLU")
}

// BackwardParams accumulates the same parameter gradients as Backward and
// returns nothing: the first layer's grad·Wᵀ, which only the (discarded)
// input gradient needs, is not computed. It is for a network at the bottom
// of the graph, whose input is data.
func (n *Network) BackwardParams(grad *tensor.Matrix) {
	n.Grads()
	i := len(n.Layers) - 1
	for i > 0 {
		n.backwardParams(i, grad)
		grad, i = n.backwardInput(i, grad)
	}
	if i == 0 {
		n.backwardParams(0, grad)
	}
}

// Params returns all trainable tensors in layer order. The slice is cached
// across calls; callers must not append to or reorder it.
func (n *Network) Params() []*tensor.Matrix {
	if n.params == nil {
		for _, l := range n.Layers {
			n.params = append(n.params, l.Params()...)
		}
	}
	return n.params
}

// Grads returns all gradient tensors in the same order as Params. The slice
// is cached across calls; callers must not append to or reorder it.
//
// A network gets gradients only when something trains it: the first call
// allocates them, and NewAdam and every parameter backward make that call.
// A network that only forwards (a target network, a decoded acting policy)
// carries none. A workspace's gradients are its source's (see Bind).
func (n *Network) Grads() []*tensor.Matrix {
	if n.grads == nil {
		for _, l := range n.Layers {
			n.grads = append(n.grads, l.Grads()...)
		}
	}
	return n.grads
}

// Bind points n's parameters and gradients at src's and returns n. n keeps
// its own forward and backward scratch, so it is a workspace: a pass through
// it reads src's weights and accumulates into src's gradients, bit for bit
// what src's own pass would, while src's scratch stays untouched. The update
// engine gives each worker one workspace per network shape and rebinds it to
// whichever agent's network it runs next, so batch-sized scratch grows with
// the worker count, not with the number of networks.
//
// A source without gradients leaves n without any, so a parameter backward
// through n panics rather than accumulate into gradients of n's own.
//
// The first Bind of a zero Network builds its layer stack; later ones
// allocate nothing. Scratch is allocated by the first pass that needs it, at
// the shapes that pass uses. A workspace serves one architecture: Bind
// panics if src's layers differ in kind or shape from those it was first
// bound to. Binding reads src without writing it, so workspaces may bind the
// same network and run forwards concurrently while its weights stay still.
func (n *Network) Bind(src *Network) *Network {
	build := n.Layers == nil
	if build {
		n.Layers = make([]Layer, len(src.Layers))
	}
	if len(n.Layers) != len(src.Layers) {
		panic(fmt.Sprintf("nn: Bind of a %d-layer network to a %d-layer workspace", len(src.Layers), len(n.Layers)))
	}
	n.params, n.grads = n.params[:0], n.grads[:0]
	for i, l := range src.Layers {
		matches := false
		switch s := l.(type) {
		case *Dense:
			if build {
				n.Layers[i] = &Dense{}
			}
			d, ok := n.Layers[i].(*Dense)
			if matches = ok && (d.W == nil || d.W.Rows == s.W.Rows && d.W.Cols == s.W.Cols); matches {
				d.W, d.B, d.gradW, d.gradB = s.W, s.B, s.gradW, s.gradB
				n.params = append(n.params, d.W, d.B)
				n.grads = append(n.grads, d.gradW, d.gradB)
			}
		case *ReLU:
			if build {
				n.Layers[i] = NewReLU()
			}
			_, matches = n.Layers[i].(*ReLU)
		}
		if !matches {
			panic(fmt.Sprintf("nn: Bind: layer %d (%T) does not match the workspace's %T", i, l, n.Layers[i]))
		}
	}
	return n
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, g := range n.Grads() {
		g.Zero()
	}
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Data)
	}
	return total
}

// HardCopy copies src's parameters into dst. The two networks must have the
// same architecture. Used to initialize target networks.
func HardCopy(dst, src *Network) {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		panic("nn: HardCopy between different architectures")
	}
	for i := range dp {
		dp[i].CopyFrom(sp[i])
	}
}

// SoftUpdate performs the Polyak target update
// target ← τ·src + (1-τ)·target used by MADDPG and MATD3 (τ=0.01 in the
// paper's settings), tensor.Polyak on every parameter.
func SoftUpdate(target, src *Network, tau float64) {
	tp, sp := target.Params(), src.Params()
	if len(tp) != len(sp) {
		panic("nn: SoftUpdate between different architectures")
	}
	for i := range tp {
		tensor.Polyak(tp[i].Data, sp[i].Data, tau)
	}
}

// ClipGradients scales all gradients down so their global L2 norm does not
// exceed maxNorm (matching the gradient clipping of the reference MADDPG
// implementation, clip norm 0.5). It returns the pre-clip norm.
func (n *Network) ClipGradients(maxNorm float64) float64 {
	var sq float64
	grads := n.Grads()
	for _, g := range grads {
		for _, v := range g.Data {
			sq += v * v
		}
	}
	norm := math.Sqrt(sq)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / norm
		for _, g := range grads {
			g.Scale(scale)
		}
	}
	return norm
}
