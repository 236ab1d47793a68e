package tensor

import (
	"fmt"
	"math"
)

// The optimizer steps: Adam's moments and bias-corrected update, and the
// Polyak soft update of a target network. Each is elementwise, so on the
// resident bodies the whole vectors at the front run in assembly
// (optim_amd64.h) and the rest in the Go loop, which is also the reference.
// Both perform, per element, the IEEE operations the Go loop performs, in
// its order and each rounded on its own: a multiply, an add, a divide and a
// square root are VMULPD, VADDPD (VSUBPD), VDIVPD and VSQRTPD, and nothing is
// fused. The Go loop wraps each product in a float64 conversion, which the
// language defines to round it, so that no compiler setting fuses it into
// the add that follows (GOAMD64=v3 would otherwise be allowed to). The bits
// therefore depend on neither the body nor the compiler: a NaN stays a NaN,
// though which NaN, where two meet, is the instruction's to say.

// AdamScalars are one Adam step's scalars: the learning rate, the moment
// decay rates β₁ and β₂, ε, and the bias corrections 1 − β₁ᵗ and 1 − β₂ᵗ of
// step t.
type AdamScalars struct {
	LR, Beta1, Beta2, Eps float64
	Correct1, Correct2    float64
}

// adamArgs is what the resident Adam step (optim_amd64.h) is called with:
// the four slices from their first element, the count of elements it runs
// (whole vectors), and the scalars, 1 − β₁ and 1 − β₂ included.
type adamArgs struct {
	p, g, m, v         *float64
	n                  int
	beta1, keep1       float64
	beta2, keep2       float64
	correct1, correct2 float64
	lr, eps            float64
}

// AdamStep applies one Adam update to the parameters p from their gradients
// g, with first and second moments m and v, all of one length:
//
//	m ← β₁·m + (1−β₁)·g
//	v ← β₂·v + ((1−β₂)·g)·g
//	p ← p − (lr·(m/(1−β₁ᵗ))) / (√(v/(1−β₂ᵗ)) + ε)
//
// element by element, each operation rounded as Go rounds it.
func AdamStep(p, g, m, v []float64, s AdamScalars) {
	if len(g) != len(p) || len(m) != len(p) || len(v) != len(p) {
		panic(fmt.Sprintf("tensor: AdamStep lengths %d, %d, %d, %d", len(p), len(g), len(m), len(v)))
	}
	done := 0
	if lanes := vectorLanes; lanes != 0 && len(p) >= lanes {
		args := adamArgs{
			p: &p[0], g: &g[0], m: &m[0], v: &v[0], n: len(p) &^ (lanes - 1),
			beta1: s.Beta1, keep1: 1 - s.Beta1, beta2: s.Beta2, keep2: 1 - s.Beta2,
			correct1: s.Correct1, correct2: s.Correct2, lr: s.LR, eps: s.Eps,
		}
		adamVectors(lanes, &args)
		done = args.n
	}
	adamLoop(p[done:], g[done:], m[done:], v[done:], s)
}

// adamLoop is AdamStep's Go body and the reference for the resident one.
func adamLoop(p, g, m, v []float64, s AdamScalars) {
	keep1, keep2 := 1-s.Beta1, 1-s.Beta2
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	for j, gj := range g {
		m[j] = float64(s.Beta1*m[j]) + float64(keep1*gj)
		v[j] = float64(s.Beta2*v[j]) + float64(float64(keep2*gj)*gj)
		mh := m[j] / s.Correct1
		vh := v[j] / s.Correct2
		p[j] -= float64(s.LR*mh) / (math.Sqrt(vh) + s.Eps)
	}
}

// Polyak moves dst towards src by tau, the soft update of a target network:
//
//	dst ← τ·src + (1−τ)·dst
//
// element by element, each operation rounded as Go rounds it. The slices
// have one length.
func Polyak(dst, src []float64, tau float64) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("tensor: Polyak length mismatch %d vs %d", len(dst), len(src)))
	}
	done := 0
	if lanes := vectorLanes; lanes != 0 && len(dst) >= lanes {
		done = len(dst) &^ (lanes - 1)
		polyakVectors(lanes, dst[:done], src[:done], tau)
	}
	polyakLoop(dst[done:], src[done:], tau)
}

// polyakLoop is Polyak's Go body and the reference for the resident one.
func polyakLoop(dst, src []float64, tau float64) {
	keep := 1 - tau
	src = src[:len(dst)]
	for j, s := range src {
		dst[j] = float64(tau*s) + float64(keep*dst[j])
	}
}
