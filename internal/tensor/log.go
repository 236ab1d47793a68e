package tensor

import (
	"fmt"
	"math"
)

// Log writes the natural logarithm of every element of src into dst:
// dst[i] = math.Log(src[i]), bit for bit, on every body vectorLanes selects.
// The slices have one length; dst may be src.
//
// The Go body is that loop. On amd64 with AVX2 or AVX-512 the elements go a
// vector at a time through a packed transcription of the routine math.Log
// itself runs there (log_amd64.h), which computes positive, finite, non-zero
// inputs only: a vector holding any other lane — a zero, a negative number,
// an infinity or a NaN, whose results are constants or the argument — is
// handed back and goes lane by lane through math.Log, as does the tail
// shorter than a vector. Exploration noise, the caller this exists for, has
// no such lane.
//
// There is no Exp beside it: math.Exp's amd64 routine uses fused
// multiply-adds, which this package's assembly may not (DESIGN.md §7).
func Log(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Log length mismatch %d vs %d", len(dst), len(src)))
	}
	i := 0
	if lanes := vectorLanes; lanes != 0 {
		for len(src)-i >= lanes {
			i += logVectors(lanes, dst[i:], src[i:])
			if len(src)-i < lanes {
				break
			}
			// The vector at i was handed back.
			for end := i + lanes; i < end; i++ {
				dst[i] = math.Log(src[i])
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = math.Log(src[i])
	}
}
