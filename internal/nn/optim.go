package nn

import (
	"math"

	"marlperf/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2014), the optimizer the
// paper uses with learning rate 0.01.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	params []*tensor.Matrix
	grads  []*tensor.Matrix
	m      [][]float64 // first-moment estimates
	v      [][]float64 // second-moment estimates
	t      int         // step count
}

// NewAdam binds an Adam optimizer to a network's parameters with the given
// learning rate and the standard β₁=0.9, β₂=0.999, ε=1e-8 defaults.
func NewAdam(net *Network, lr float64) *Adam {
	a := &Adam{
		LR:     lr,
		Beta1:  0.9,
		Beta2:  0.999,
		Eps:    1e-8,
		params: net.Params(),
		grads:  net.Grads(),
	}
	a.m = make([][]float64, len(a.params))
	a.v = make([][]float64, len(a.params))
	for i, p := range a.params {
		a.m[i] = make([]float64, len(p.Data))
		a.v[i] = make([]float64, len(p.Data))
	}
	return a
}

// Step applies one Adam update from the currently accumulated gradients
// (tensor.AdamStep states the arithmetic). Gradients are not cleared; call
// Network.ZeroGrads before the next accumulation.
func (a *Adam) Step() {
	a.t++
	s := tensor.AdamScalars{
		LR: a.LR, Beta1: a.Beta1, Beta2: a.Beta2, Eps: a.Eps,
		Correct1: 1 - math.Pow(a.Beta1, float64(a.t)),
		Correct2: 1 - math.Pow(a.Beta2, float64(a.t)),
	}
	for i, p := range a.params {
		tensor.AdamStep(p.Data, a.grads[i].Data, a.m[i], a.v[i], s)
	}
}
