package expstore

import (
	"sync"

	"marlperf/internal/replay"
)

// Provider is the read side the experience server samples from, met by the
// in-memory Ring and the persistent Store: insertion-order row addressing
// and the gather of rows whose indices the learner drew
// (SamplePlan.FillIndices over RowCount) straight into a reply. The two
// write differently: a Store appends whole batches (Store.Append), a Ring
// one row at a time (Ring.AppendRow).
type Provider interface {
	Layout() replay.RowLayout
	// RowCount returns the number of sampleable rows.
	RowCount() int
	// GatherEncodeLE writes the rows at the given insertion-order indices
	// into dst as little-endian float64 bytes (len(indices)·Stride()·8 of
	// them), straight from row storage — the experience server's sample
	// reply path.
	GatherEncodeLE(indices []int, dst []byte)
}

var (
	_ Provider = (*Ring)(nil)
	_ Provider = (*Store)(nil)
)

// Source adapts a Ring plus a SamplePlan to the trainer-facing
// replay.TransitionSource and replay.TransitionSink interfaces. It is the
// local half of the actor/learner split: a trainer wired to a Source backed
// by the same rows in the same order as a remote service draws bit-identical
// batches, because both expand the same (plan, length, seed) with
// SamplePlan.FillIndices.
//
// SampleBatch is safe for concurrent use across update workers: draws
// serialize on an internal lock around the shared scratch, which costs
// nothing deterministically — every batch is a pure function of its own
// (n, seed, dst) regardless of draw order. Add/Flush belong to the single
// collection goroutine.
type Source struct {
	r    *Ring
	plan replay.SamplePlan

	mu         sync.Mutex
	idxScratch []int
	rowScratch []float64
	packRow    []float64
}

// NewSource wraps r with plan. The plan must validate.
func NewSource(r *Ring, plan replay.SamplePlan) (*Source, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Source{r: r, plan: plan}, nil
}

// Plan returns the sampling plan executed on every SampleBatch.
func (s *Source) Plan() replay.SamplePlan { return s.plan }

// Len implements replay.TransitionSource.
func (s *Source) Len() (int, error) { return s.r.RowCount(), nil }

// SampleBatch implements replay.TransitionSource: one seeded plan execution
// against the ring, split into per-agent tensors. The returned index
// slice aliases internal scratch and is valid only until the next
// SampleBatch on this Source; dst is fully written before return.
func (s *Source) SampleBatch(n int, seed int64, dst []*replay.AgentBatch) ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	layout := s.r.Layout()
	stride := layout.Stride()
	if cap(s.idxScratch) < n {
		s.idxScratch = make([]int, n)
		s.rowScratch = make([]float64, n*stride)
	}
	idx := s.idxScratch[:n]
	rows := s.rowScratch[:n*stride]
	if err := s.r.SamplePacked(s.plan, n, seed, idx, rows); err != nil {
		return nil, err
	}
	layout.SplitRows(rows, n, dst)
	return idx, nil
}

// Add implements replay.TransitionSink: pack one environment step and
// append it.
func (s *Source) Add(obs, act [][]float64, rew []float64, nextObs [][]float64, done []float64) error {
	layout := s.r.Layout()
	if s.packRow == nil {
		s.packRow = make([]float64, layout.Stride())
	}
	layout.PackRow(s.packRow, obs, act, rew, nextObs, done)
	return s.r.AppendRow(s.packRow)
}

// Flush implements replay.TransitionSink.
func (s *Source) Flush() error { return s.r.Flush() }

var (
	_ replay.TransitionSource = (*Source)(nil)
	_ replay.TransitionSink   = (*Source)(nil)
)
