package tensor

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// AXPY performs dst += s·src elementwise on equal-length slices.
func AXPY(dst []float64, s float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: AXPY length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += s * v
	}
}

// ReLU returns max(v, 0) without branching on v: an arithmetic shift smears
// the sign bit into a mask that clears negative values (and -0) to +0 and
// keeps everything else, +Inf and a NaN with a clear sign bit included.
func ReLU(v float64) float64 {
	b := math.Float64bits(v)
	return math.Float64frombits(b &^ uint64(int64(b)>>63))
}

// ReLUGrad is the backward pass of ReLU over a run of elements: dst[i] is
// grad[i] where out[i], the output the forward pass retained, was active and
// +0 elsewhere. Active means non-zero bits: ReLU writes +0 for everything it
// clears and keeps the bits of everything else, a NaN included. The slices
// have one length; dst may be grad. The mask is the sign of minus the bits,
// so the loop has no branch on data that is zero about half the time.
func ReLUGrad(dst, grad, out []float64) {
	if len(dst) != len(grad) || len(out) != len(grad) {
		panic(fmt.Sprintf("tensor: ReLUGrad length mismatch %d, %d, %d", len(dst), len(grad), len(out)))
	}
	for i, o := range out {
		active := uint64(-int64(math.Float64bits(o)) >> 63)
		dst[i] = math.Float64frombits(math.Float64bits(grad[i]) & active)
	}
}

// Softmax writes the softmax of logits into dst (which may alias logits)
// using the max-subtraction trick for numerical stability: the largest
// logit, then every logit minus it, their exponentials in one Exp, their sum
// from the first on, and each exponential times the sum's reciprocal.
func Softmax(dst, logits []float64) {
	if len(dst) != len(logits) {
		panic(fmt.Sprintf("tensor: Softmax length mismatch %d vs %d", len(dst), len(logits)))
	}
	if len(logits) == 0 {
		return
	}
	mx := logits[0]
	for _, v := range logits[1:] {
		if v > mx {
			mx = v
		}
	}
	for i, v := range logits {
		dst[i] = v - mx
	}
	Exp(dst, dst)
	var sum float64
	for _, e := range dst {
		sum += e
	}
	inv := 1.0 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// ArgMax returns the index of the largest element of v (first on ties);
// -1 for an empty slice.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
