package replay

import (
	"fmt"
	"math/rand"
	"sync"
)

// ReuseSampler models the transition-reuse strategy of AccMER (Gogineni et
// al., 2023 — cited as related work [43]): a drawn mini-batch is reused for
// a window of W consecutive updates before fresh indices are sampled,
// trading sampling freshness for data-movement savings. It wraps any inner
// sampler, so reuse composes with uniform, locality-aware, or prioritized
// index generation.
type ReuseSampler struct {
	inner  Sampler
	Window int

	mu        sync.Mutex // guards the cache: SampleInto mutates it on refresh
	cached    Sample
	usesLeft  int
	cachedFor int // batch size the cache was drawn for
}

// NewReuseSampler wraps inner so each drawn batch is reused window times
// (window=1 behaves exactly like inner).
func NewReuseSampler(inner Sampler, window int) *ReuseSampler {
	if window < 1 {
		panic(fmt.Sprintf("replay: reuse window %d, want ≥1", window))
	}
	return &ReuseSampler{inner: inner, Window: window}
}

// Name implements Sampler.
func (s *ReuseSampler) Name() string {
	return fmt.Sprintf("reuse(w=%d,%s)", s.Window, s.inner.Name())
}

// SampleInto implements Sampler: it returns the cached batch while the
// window lasts, then refreshes from the inner sampler. A change in requested
// batch size invalidates the cache. The cache is copied into dst rather than
// aliased, so concurrent callers (serialized on the refresh by the mutex)
// each get independent storage.
func (s *ReuseSampler) SampleInto(dst *Sample, n int, rng *rand.Rand) {
	s.mu.Lock()
	if s.usesLeft > 0 && s.cachedFor == n {
		s.usesLeft--
	} else {
		s.inner.SampleInto(&s.cached, n, rng)
		s.cachedFor = n
		s.usesLeft = s.Window - 1
	}
	dst.Reset(len(s.cached.Indices))
	dst.Indices = append(dst.Indices, s.cached.Indices...)
	dst.growWeights(len(s.cached.Weights))
	dst.Weights = append(dst.Weights, s.cached.Weights...)
	dst.growRefs(len(s.cached.Refs))
	dst.Refs = append(dst.Refs, s.cached.Refs...)
	s.mu.Unlock()
}

// UpdatePriorities forwards TD errors to the inner sampler when it is
// prioritized; otherwise it is a no-op, so reuse can wrap any sampler under
// a PrioritySampler-shaped caller.
func (s *ReuseSampler) UpdatePriorities(indices []int, tdAbs []float64) {
	if ps, ok := s.inner.(PrioritySampler); ok {
		ps.UpdatePriorities(indices, tdAbs)
	}
}
