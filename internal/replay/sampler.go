package replay

import (
	"fmt"
	"math/rand"
)

// Sample is the result of one mini-batch index selection.
type Sample struct {
	Indices []int
	// Weights holds the Lemma-1 importance-sampling weights, normalized so
	// the largest is 1. A nil or empty slice means uniform (all-ones)
	// weights.
	Weights []float64
	// Refs records the reference points IPLocalitySampler expanded, for
	// diagnostics and tests; nil for every other sampler.
	Refs []int
}

// Reset truncates the sample's slices in place (retaining capacity) and
// ensures Indices can hold n entries without reallocating. SampleInto
// implementations call it first, so a Sample reused across updates settles
// into zero steady-state allocation.
func (s *Sample) Reset(n int) {
	if cap(s.Indices) < n {
		s.Indices = make([]int, 0, n)
	}
	s.Indices = s.Indices[:0]
	s.Weights = s.Weights[:0]
	s.Refs = s.Refs[:0]
}

// growWeights ensures Weights can hold n entries without reallocating.
func (s *Sample) growWeights(n int) {
	if cap(s.Weights) < n {
		s.Weights = make([]float64, 0, n)
	}
}

// growRefs ensures Refs can hold n entries without reallocating (n is the
// worst case: every reference run truncated after one neighbor).
func (s *Sample) growRefs(n int) {
	if cap(s.Refs) < n {
		s.Refs = make([]int, 0, n)
	}
}

// Sampler produces mini-batch index sets over a buffer.
type Sampler interface {
	// Name identifies the strategy in reports.
	Name() string
	// SampleInto fills dst with n transition indices (and optional IS
	// weights), reusing dst's storage; steady-state calls do not allocate.
	// Concurrent SampleInto calls with distinct dst and rng are safe as
	// long as no priority update or buffer write runs concurrently — the
	// contract of the parallel update engine, which batches TD-error
	// feedback and applies it after all workers join.
	SampleInto(dst *Sample, n int, rng *rand.Rand)
}

// PrioritySampler is a Sampler whose distribution adapts to TD errors.
type PrioritySampler interface {
	Sampler
	// UpdatePriorities refreshes the priorities of the sampled indices with
	// their new absolute TD errors. Not safe to call while SampleInto runs
	// on another goroutine; callers running parallel updates must batch
	// TD errors per worker and apply them after the join.
	UpdatePriorities(indices []int, tdAbs []float64)
}

// PlanSampler runs a stateless SamplePlan over a store's insertion order:
// each draw takes one seed from rng, expands it with SamplePlan.FillIndices
// into insertion-order indices, and maps each to its slot. A fabric draw or
// an experience source expands the same seed over the same rows with the
// same plan, so an in-process run trains on the batches a fabric run does.
type PlanSampler struct {
	rows *ring
	plan SamplePlan
}

// NewUniformSampler returns the MARL baseline over st: every index is drawn
// i.i.d. uniform, producing the irregular access pattern the paper profiles.
func NewUniformSampler(st Store) *PlanSampler {
	return &PlanSampler{rows: st.slots(), plan: SamplePlan{Strategy: PlanUniform}}
}

// NewLocalitySampler returns the paper's Algorithm 1 over st: uniform
// reference points each expanded into neighbors consecutive transitions, so
// the gather stream becomes sequential runs a hardware prefetcher can
// follow. A batch of n holds ⌈n/neighbors⌉ runs, the last truncated; refs is
// the nominal run count the name reports. The paper evaluates (16, 64) and
// (64, 16), both covering the batch size 1024.
func NewLocalitySampler(st Store, neighbors, refs int) *PlanSampler {
	if neighbors < 1 || refs < 1 {
		panic(fmt.Sprintf("replay: locality sampler needs positive neighbors/refs, got %d/%d", neighbors, refs))
	}
	return &PlanSampler{rows: st.slots(), plan: SamplePlan{Strategy: PlanLocality, Neighbors: neighbors, Refs: refs}}
}

// Name implements Sampler.
func (s *PlanSampler) Name() string { return s.plan.String() }

// SampleInto implements Sampler. Its one rng.Int63 is the seed a trainer
// wired to an experience source draws from the same stream.
func (s *PlanSampler) SampleInto(dst *Sample, n int, rng *rand.Rand) {
	length := s.rows.length
	if length == 0 {
		panic("replay: sampling from empty buffer")
	}
	dst.Reset(n)
	dst.Indices = dst.Indices[:n]
	if err := s.plan.FillIndices(dst.Indices, length, rng.Int63()); err != nil {
		panic(err) // the constructors build only valid plans
	}
	oldest, capacity := s.rows.oldest(), s.rows.spec.Capacity
	for i, k := range dst.Indices {
		slot := oldest + k // k < Len ≤ capacity: one subtraction wraps it
		if slot >= capacity {
			slot -= capacity
		}
		dst.Indices[i] = slot
	}
}
