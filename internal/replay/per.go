package replay

import (
	"fmt"
	"math"
	"math/rand"
)

// PERSampler implements proportional prioritized experience replay
// (Schaul et al., 2015), the PER-MADDPG baseline the paper compares
// against. Priorities are p_i = (|δ_i| + ε)^α; sampling is proportional via
// a sum tree; bias is compensated with importance weights
// w_i = (1/N · 1/P(i))^β, normalized by the max weight.
type PERSampler struct {
	rows  *ring
	tree  *SumTree
	Alpha float64
	Beta  float64
	Eps   float64

	maxPriority float64 // running max, assigned to fresh transitions
	sanitized   uint64  // TD errors clamped by sanitizePriority
}

// priorityFloor replaces NaN, Inf and negative TD errors. One bad priority
// in the sum tree poisons every subsequent proportional sample (NaN totals
// make Find undefined; Inf swallows the whole distribution), so divergent
// updates are clamped to a tiny positive priority instead of propagated.
const priorityFloor = 1e-8

// sanitizePriority returns a safe priority for td and whether it had to be
// clamped.
func sanitizePriority(td float64) (float64, bool) {
	if math.IsNaN(td) || math.IsInf(td, 0) || td < 0 {
		return priorityFloor, true
	}
	return td, false
}

// NewPERSampler builds a proportional PER sampler over st with the
// standard α=0.6, β=0.4, ε=1e-6 defaults, registering itself so new
// transitions enter at max priority.
func NewPERSampler(st Store) *PERSampler {
	rows := st.slots()
	s := &PERSampler{
		rows:        rows,
		tree:        NewSumTree(rows.spec.Capacity),
		Alpha:       0.6,
		Beta:        0.4,
		Eps:         1e-6,
		maxPriority: 1,
	}
	rows.AddListener(s.onAdd)
	return s
}

// Name implements Sampler.
func (s *PERSampler) Name() string { return "per" }

// onAdd gives a freshly written slot the current maximum priority so every
// transition is sampled at least once with high probability.
func (s *PERSampler) onAdd(idx int) {
	s.tree.Set(idx, math.Pow(s.maxPriority+s.Eps, s.Alpha))
}

// SampleInto implements Sampler: stratified proportional sampling with
// importance weights. It only reads the sum tree, so concurrent calls with
// distinct dst/rng are safe while priority updates are deferred.
func (s *PERSampler) SampleInto(dst *Sample, n int, rng *rand.Rand) {
	if s.rows.length == 0 {
		panic("replay: sampling from empty buffer")
	}
	total := s.tree.Total()
	if total <= 0 {
		panic("replay: PER tree has zero total priority")
	}
	dst.Reset(n)
	dst.growWeights(n)
	segment := total / float64(n)
	length := float64(s.rows.length)
	maxW := 0.0
	for i := 0; i < n; i++ {
		v := (float64(i) + rng.Float64()) * segment
		leaf := s.tree.Find(v)
		if leaf >= s.rows.length {
			leaf = rng.Intn(s.rows.length)
		}
		dst.Indices = append(dst.Indices, leaf)
		prob := s.tree.Get(leaf) / total
		if prob <= 0 {
			prob = 1 / length
		}
		w := math.Pow(1/(length*prob), s.Beta)
		dst.Weights = append(dst.Weights, w)
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 0 {
		for i := range dst.Weights {
			dst.Weights[i] /= maxW
		}
	}
}

// UpdatePriorities implements PrioritySampler. Non-finite and negative TD
// errors are clamped to priorityFloor (and counted) before they can enter
// the sum tree.
func (s *PERSampler) UpdatePriorities(indices []int, tdAbs []float64) {
	if len(indices) != len(tdAbs) {
		panic(fmt.Sprintf("replay: UpdatePriorities got %d indices, %d errors", len(indices), len(tdAbs)))
	}
	for i, idx := range indices {
		td, clamped := sanitizePriority(tdAbs[i])
		if clamped {
			s.sanitized++
		}
		if td > s.maxPriority {
			s.maxPriority = td
		}
		s.tree.Set(idx, math.Pow(td+s.Eps, s.Alpha))
	}
}

// SanitizedCount returns how many TD errors were clamped because they were
// NaN, Inf or negative.
func (s *PERSampler) SanitizedCount() uint64 { return s.sanitized }

// NormalizedPriority returns leaf idx's priority scaled to [0, 1] by the
// current max — the "normalized weight" the IP predictor thresholds.
func (s *PERSampler) NormalizedPriority(idx int) float64 {
	denom := math.Pow(s.maxPriority+s.Eps, s.Alpha)
	if denom <= 0 {
		return 0
	}
	p := s.tree.Get(idx) / denom
	if p > 1 {
		p = 1
	}
	return p
}

// probability returns P(idx) under the current priority distribution.
func (s *PERSampler) probability(idx int) float64 {
	total := s.tree.Total()
	if total <= 0 {
		return 0
	}
	return s.tree.Get(idx) / total
}
