package replay

import "math/rand"

// draw takes one batch of n indices from s into a fresh Sample, leaving
// Weights and Refs nil when the sampler wrote none.
func draw(s Sampler, n int, rng *rand.Rand) Sample {
	var dst Sample
	s.SampleInto(&dst, n, rng)
	if len(dst.Weights) == 0 {
		dst.Weights = nil
	}
	if len(dst.Refs) == 0 {
		dst.Refs = nil
	}
	return dst
}
