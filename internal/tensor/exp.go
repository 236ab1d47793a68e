package tensor

import (
	"fmt"
	"math"
)

// Exp writes the exponential of every element of src into dst:
// dst[i] = math.Exp(src[i]), bit for bit, on every body vectorLanes selects.
// The slices have one length; dst may be src.
//
// The Go body is that loop. On amd64 with AVX2 or AVX-512 — and FMA, which
// every resident body requires and with which math.Exp runs its fused branch
// — the elements go a vector at a time through a packed transcription of
// that branch (exp_amd64.h), which computes only inputs whose result is a
// normal double reached by one scaling: a vector holding any other lane — a
// NaN, an infinity, an input above math.Exp's overflow bound or one whose
// result is subnormal or zero (below about -708.4) — is handed back and goes
// lane by lane through math.Exp, as does the tail shorter than a vector. A
// softmax, the caller this exists for, exponentiates values at or below zero
// and meets such a lane only when a logit is not finite or far below the
// row's largest.
func Exp(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Exp length mismatch %d vs %d", len(dst), len(src)))
	}
	i := 0
	if lanes := vectorLanes; lanes != 0 {
		for len(src)-i >= lanes {
			i += expVectors(lanes, dst[i:], src[i:])
			if len(src)-i < lanes {
				break
			}
			// The vector at i was handed back.
			for end := i + lanes; i < end; i++ {
				dst[i] = math.Exp(src[i])
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}
