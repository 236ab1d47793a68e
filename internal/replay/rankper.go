package replay

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// RankPERSampler implements the rank-based variant of prioritized
// experience replay (Schaul et al., 2015): sampling probability
// P(i) ∝ 1/rank(i), where rank orders transitions by |TD error|. Rank-based
// prioritization is less sensitive to outlier TD magnitudes than the
// proportional variant; it is included as an additional baseline for the
// prioritization ablations.
//
// The rank order is rebuilt lazily: updates mark the order dirty and the
// next Sample re-sorts, amortizing the O(n log n) cost across the batch.
type RankPERSampler struct {
	rows *ring
	Beta float64 // importance-weight compensation

	// mu serializes the lazy rebuild: SampleInto may be called from
	// several update workers at once, and the first caller after an
	// UpdatePriorities re-sorts order/cum in place. The rebuild is
	// deterministic (stable sort over priorities), so whichever worker
	// wins produces the same order and the rest sample read-only.
	mu sync.Mutex

	priorities []float64
	order      []int     // slot indices sorted by priority, descending
	cum        []float64 // cumulative 1/rank masses over order
	dirty      bool
	maxPri     float64
	sanitized  uint64 // TD errors clamped by sanitizePriority
}

// NewRankPERSampler builds a rank-based sampler over st with β=0.4.
func NewRankPERSampler(st Store) *RankPERSampler {
	rows := st.slots()
	s := &RankPERSampler{
		rows:       rows,
		Beta:       0.4,
		priorities: make([]float64, rows.spec.Capacity),
		maxPri:     1,
	}
	rows.AddListener(s.onAdd)
	return s
}

// Name implements Sampler.
func (s *RankPERSampler) Name() string { return "rank-per" }

func (s *RankPERSampler) onAdd(idx int) {
	s.priorities[idx] = s.maxPri
	s.dirty = true
}

// rebuild re-sorts the rank order and cumulative masses.
func (s *RankPERSampler) rebuild() {
	n := s.rows.length
	s.order = s.order[:0]
	for i := 0; i < n; i++ {
		s.order = append(s.order, i)
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		return s.priorities[s.order[a]] > s.priorities[s.order[b]]
	})
	s.cum = s.cum[:0]
	var total float64
	for rank := 1; rank <= n; rank++ {
		total += 1 / float64(rank)
		s.cum = append(s.cum, total)
	}
	s.dirty = false
}

// SampleInto implements Sampler with stratified rank-proportional draws.
func (s *RankPERSampler) SampleInto(dst *Sample, n int, rng *rand.Rand) {
	length := s.rows.length
	if length == 0 {
		panic("replay: sampling from empty buffer")
	}
	s.mu.Lock()
	if s.dirty || len(s.order) != length {
		s.rebuild()
	}
	s.mu.Unlock()
	total := s.cum[len(s.cum)-1]
	dst.Reset(n)
	dst.growWeights(n)
	segment := total / float64(n)
	flen := float64(length)
	maxW := 0.0
	for i := 0; i < n; i++ {
		v := (float64(i) + rng.Float64()) * segment
		pos := sort.SearchFloat64s(s.cum, v)
		if pos >= length {
			pos = length - 1
		}
		dst.Indices = append(dst.Indices, s.order[pos])
		prob := (1 / float64(pos+1)) / total
		w := math.Pow(1/(flen*prob), s.Beta)
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
// errors are clamped to priorityFloor (and counted) before they can skew
// the rank order — a single NaN priority makes the sort comparator
// inconsistent, scrambling every subsequent rank.
func (s *RankPERSampler) UpdatePriorities(indices []int, tdAbs []float64) {
	if len(indices) != len(tdAbs) {
		panic(fmt.Sprintf("replay: UpdatePriorities got %d indices, %d errors", len(indices), len(tdAbs)))
	}
	for i, idx := range indices {
		if idx < 0 || idx >= len(s.priorities) {
			panic(fmt.Sprintf("replay: priority index %d outside [0,%d)", idx, len(s.priorities)))
		}
		td, clamped := sanitizePriority(tdAbs[i])
		if clamped {
			s.sanitized++
		}
		if td > s.maxPri {
			s.maxPri = td
		}
		s.priorities[idx] = td
	}
	s.dirty = true
}

// SanitizedCount returns how many TD errors were clamped because they were
// NaN, Inf or negative.
func (s *RankPERSampler) SanitizedCount() uint64 { return s.sanitized }
