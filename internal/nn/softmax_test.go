package nn

import (
	"math/rand"
	"testing"

	"marlperf/internal/tensor"
)

// TestSoftmaxBackwardRowsPanicsOnOverlap: a dst that shares storage with
// probs, or with gradProbs without being it, panics.
func TestSoftmaxBackwardRowsPanicsOnOverlap(t *testing.T) {
	buf := make([]float64, 20)
	a, b := tensor.FromSlice(2, 5, buf[:10]), tensor.FromSlice(2, 5, buf[5:15])
	for name, fn := range map[string]func(){
		"probs":       func() { SoftmaxBackwardRows(a, b, tensor.New(2, 5)) },
		"grad":        func() { SoftmaxBackwardRows(a, tensor.New(2, 5), b) },
		"dst = probs": func() { SoftmaxBackwardRows(a, a, tensor.New(2, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestGumbelSoftmaxRowsPanicsOnOverlap: dst holds the noise while logits are
// still to be read, so one matrix passed as both — which used to return a
// uniform row instead of a sample — or two that share storage panic.
func TestGumbelSoftmaxRowsPanicsOnOverlap(t *testing.T) {
	rngs := []*rand.Rand{rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))}
	buf := make([]float64, 14)
	m := tensor.FromSlice(2, 5, buf[:10])
	for name, fn := range map[string]func(){
		"same matrix":   func() { GumbelSoftmaxRows(m, m, 1, rngs) },
		"shared memory": func() { GumbelSoftmaxRows(m, tensor.FromSlice(2, 5, buf[4:14]), 1, rngs) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: did not panic", name)
				}
			}()
			fn()
		}()
	}
}
