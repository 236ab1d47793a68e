package replay

import "fmt"

// Sample-plan strategies a sharded experience fabric can draw with. Only
// strategies whose index selection is a pure function of (length, seed)
// qualify: prioritized samplers carry mutable client-side state (sum
// trees, rank heaps) that cannot be replayed against a frozen view.
const (
	// PlanUniform is baseline i.i.d. uniform index selection.
	PlanUniform = "uniform"
	// PlanLocality is the paper's Algorithm 1: uniform reference points
	// expanded into contiguous neighbor runs, so the gather streams
	// sequentially over the segment rows.
	PlanLocality = "locality"
)

// SamplePlan describes a mini-batch index selection as pure data, so the
// same selection runs identically against a local buffer or over a
// sharded fabric's frozen view. The strategy is seeded per draw: the
// learner draws one seed from its RNG stream and derives the index set
// from it, the same set a local store derives, which is what makes
// remote-fed training bit-reproducible against local training.
type SamplePlan struct {
	Strategy  string `json:"strategy"`
	Neighbors int    `json:"neighbors,omitempty"` // locality: run length
	Refs      int    `json:"refs,omitempty"`      // locality: nominal reference count (reporting)
}

// Validate reports whether the plan is executable.
func (p SamplePlan) Validate() error {
	switch p.Strategy {
	case PlanUniform:
		return nil
	case PlanLocality:
		if p.Neighbors < 1 {
			return fmt.Errorf("replay: locality plan needs Neighbors ≥1, got %d", p.Neighbors)
		}
		return nil
	default:
		return fmt.Errorf("replay: unknown sample plan strategy %q (want %q or %q)", p.Strategy, PlanUniform, PlanLocality)
	}
}

// String returns the plan's report name.
func (p SamplePlan) String() string {
	if p.Strategy == PlanLocality {
		return fmt.Sprintf("%s(n=%d,ref=%d)", p.Strategy, p.Neighbors, p.Refs)
	}
	return p.Strategy
}

// FillIndices writes len(dst) transition indices over [0, length) into dst,
// derived deterministically from seed. The index stream is identical on
// every host for the same (plan, length, seed), which both sides of the
// actor/learner split rely on: it is rand.New(rand.NewSource(seed)).Intn,
// drawn through indexStream, and it does not allocate.
func (p SamplePlan) FillIndices(dst []int, length int, seed int64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if length < 1 {
		return fmt.Errorf("replay: sample plan over empty store")
	}
	var rng indexStream
	rng.seed(seed, seedCooked)
	b := newBound(length)
	switch p.Strategy {
	case PlanUniform:
		for i := range dst {
			dst[i] = rng.intn(&b)
		}
	case PlanLocality:
		filled := 0
		for filled < len(dst) {
			ref := rng.intn(&b)
			run := p.Neighbors
			if rem := len(dst) - filled; run > rem {
				run = rem
			}
			// The neighbours of ref, wrapping to 0 at length: (ref+k) %
			// length without a division per index.
			for end := filled + run; filled < end; filled++ {
				dst[filled] = ref
				if ref++; ref == length {
					ref = 0
				}
			}
		}
	}
	return nil
}
