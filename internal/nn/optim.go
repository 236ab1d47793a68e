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

// Step applies one Adam update from the currently accumulated gradients.
// Gradients are not cleared; call Network.ZeroGrads before the next
// accumulation.
func (a *Adam) Step() {
	a.t++
	b1c := 1 - math.Pow(a.Beta1, float64(a.t))
	b2c := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		g := a.grads[i].Data
		m := a.m[i]
		v := a.v[i]
		pd := p.Data
		for j := range pd {
			gj := g[j]
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*gj
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*gj*gj
			mh := m[j] / b1c
			vh := v[j] / b2c
			pd[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}
