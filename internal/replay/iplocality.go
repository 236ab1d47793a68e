package replay

import (
	"fmt"
	"math"
	"math/rand"
)

// NeighborPredictor maps a normalized priority weight in [0,1] to the
// number of contiguous neighbors to expand around a reference point. The
// paper's setting (§VI-C1): w < 0.33 → 1 neighbor, 0.33–0.66 → 2, above
// 0.66 → 4, letting information-rich regions contribute longer sequential
// runs.
type NeighborPredictor struct {
	Thresholds []float64 // ascending threshold levels
	Neighbors  []int     // len = len(Thresholds)+1
}

// DefaultNeighborPredictor returns the paper's T1=0.33 / T2=0.66 →
// N1=1 / N2=2 / N3=4 predictor.
func DefaultNeighborPredictor() NeighborPredictor {
	return NeighborPredictor{Thresholds: []float64{0.33, 0.66}, Neighbors: []int{1, 2, 4}}
}

// Predict returns the neighbor count for normalized weight w.
func (p NeighborPredictor) Predict(w float64) int {
	if len(p.Neighbors) != len(p.Thresholds)+1 {
		panic(fmt.Sprintf("replay: predictor has %d neighbor levels for %d thresholds", len(p.Neighbors), len(p.Thresholds)))
	}
	for i, t := range p.Thresholds {
		if w < t {
			return p.Neighbors[i]
		}
	}
	return p.Neighbors[len(p.Neighbors)-1]
}

// IPLocalitySampler is the paper's information-prioritized locality-aware
// sampler (§IV-B1): reference points are drawn proportional to PER
// priorities, each reference expands into a predictor-chosen run of
// contiguous neighbors, and Lemma-1 importance weights
// w_i = (1/N · 1/P(i))^β compensate the distribution shift.
type IPLocalitySampler struct {
	per       *PERSampler
	Predictor NeighborPredictor
	Beta      float64 // Lemma-1 compensation parameter (1 = full)
}

// NewIPLocalitySampler builds the IP sampler sharing priorities with a PER
// core over st. β=1 gives full Lemma-1 compensation.
func NewIPLocalitySampler(st Store, beta float64) *IPLocalitySampler {
	return &IPLocalitySampler{
		per:       NewPERSampler(st),
		Predictor: DefaultNeighborPredictor(),
		Beta:      beta,
	}
}

// Name implements Sampler.
func (s *IPLocalitySampler) Name() string { return "ip-locality" }

// SampleInto implements Sampler: proportional reference selection, neighbor
// expansion, Lemma-1 weights. Exactly n indices are drawn; the last run is
// truncated if needed. Like the PER core it only reads the sum tree, so
// concurrent calls with distinct dst/rng are safe while priority updates
// are deferred.
func (s *IPLocalitySampler) SampleInto(dst *Sample, n int, rng *rand.Rand) {
	length := s.per.rows.length
	if length == 0 {
		panic("replay: sampling from empty buffer")
	}
	total := s.per.tree.Total()
	if total <= 0 {
		panic("replay: IP sampler has zero total priority")
	}
	dst.Reset(n)
	dst.growWeights(n)
	dst.growRefs(n)
	flen := float64(length)
	maxW := 0.0
	for len(dst.Indices) < n {
		ref := s.per.tree.Find(rng.Float64() * total)
		if ref >= length {
			ref = rng.Intn(length)
		}
		dst.Refs = append(dst.Refs, ref)
		run := s.Predictor.Predict(s.per.NormalizedPriority(ref))
		if rem := n - len(dst.Indices); run > rem {
			run = rem
		}
		// Lemma 1: the inclusion probability of the run is driven by the
		// reference's priority; neighbors inherit the reference weight, as
		// the paper's predictor applies one weight per reference expansion.
		prob := s.per.probability(ref)
		if prob <= 0 {
			prob = 1 / flen
		}
		w := math.Pow(1/(flen*prob), s.Beta)
		if w > maxW {
			maxW = w
		}
		for k := 0; k < run; k++ {
			dst.Indices = append(dst.Indices, (ref+k)%length)
			dst.Weights = append(dst.Weights, w)
		}
	}
	if maxW > 0 {
		for i := range dst.Weights {
			dst.Weights[i] /= maxW
		}
	}
}

// UpdatePriorities implements PrioritySampler, feeding TD errors back into
// the shared priority tree (with the PER core's NaN/Inf/negative clamping).
func (s *IPLocalitySampler) UpdatePriorities(indices []int, tdAbs []float64) {
	s.per.UpdatePriorities(indices, tdAbs)
}

// SanitizedCount returns how many TD errors the shared PER core clamped.
func (s *IPLocalitySampler) SanitizedCount() uint64 { return s.per.SanitizedCount() }
