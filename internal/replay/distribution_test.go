package replay

import (
	"math"
	"math/rand"
	"testing"
)

// Statistical checks on the samplers' distributions — the properties the
// paper's Lemma 1 and §IV-A reason about.

// TestLocalitySamplerMarginalIsNearUniform verifies that although locality
// sampling draws contiguous runs, the *marginal* inclusion probability of
// each index stays near-uniform (reference points are uniform, every index
// is covered by the same number of runs modulo wraparound) — the property
// that lets the paper treat the Lemma-1 weights as ≈1 for the pure
// locality sampler.
func TestLocalitySamplerMarginalIsNearUniform(t *testing.T) {
	const (
		fill   = 500
		batch  = 64
		rounds = 4000
	)
	b := NewBuffer(testSpec(fill))
	fillBuffer(b, fill)
	s := NewLocalitySampler(b, 16, 4)
	rng := rand.New(rand.NewSource(9))
	counts := make([]int, fill)
	total := 0
	for r := 0; r < rounds; r++ {
		sample := draw(s, batch, rng)
		for _, idx := range sample.Indices {
			counts[idx]++
			total++
		}
	}
	expected := float64(total) / float64(fill)
	for i, c := range counts {
		// Allow generous statistical slack (±40%) over 4000 rounds.
		if math.Abs(float64(c)-expected) > 0.4*expected {
			t.Fatalf("index %d drawn %d times, expected ≈%.0f", i, c, expected)
		}
	}
}

// TestUniformSamplerChiSquare sanity-checks the baseline's uniformity with
// a coarse chi-square bound.
func TestUniformSamplerChiSquare(t *testing.T) {
	const (
		fill  = 100
		draws = 100_000
	)
	b := NewBuffer(testSpec(128))
	fillBuffer(b, fill)
	s := NewUniformSampler(b)
	rng := rand.New(rand.NewSource(10))
	counts := make([]float64, fill)
	remaining := draws
	for remaining > 0 {
		n := 1000
		if n > remaining {
			n = remaining
		}
		sample := draw(s, n, rng)
		for _, idx := range sample.Indices {
			counts[idx]++
		}
		remaining -= n
	}
	expected := float64(draws) / float64(fill)
	var chi2 float64
	for _, c := range counts {
		d := c - expected
		chi2 += d * d / expected
	}
	// 99 degrees of freedom; mean 99, std ≈ 14. Reject only far tails.
	if chi2 > 99+6*14 {
		t.Fatalf("chi-square = %.1f, far from uniform (expected ≈99)", chi2)
	}
}

// TestPERSamplingFrequenciesMatchPriorities checks the proportional
// property quantitatively: sampling frequency ratios track priority ratios
// (after the α exponent).
func TestPERSamplingFrequenciesMatchPriorities(t *testing.T) {
	b := NewBuffer(testSpec(64))
	s := NewPERSampler(b)
	s.Alpha = 1 // direct proportionality for the test
	fillBuffer(b, 4)
	s.UpdatePriorities([]int{0, 1, 2, 3}, []float64{1, 2, 3, 4})
	rng := rand.New(rand.NewSource(11))
	counts := make([]float64, 4)
	for r := 0; r < 200; r++ {
		sample := draw(s, 100, rng)
		for _, idx := range sample.Indices {
			counts[idx]++
		}
	}
	// Frequencies should be ≈ proportional to priorities 1:2:3:4.
	for i := 1; i < 4; i++ {
		gotRatio := counts[i] / counts[0]
		wantRatio := float64(i+1) / 1
		if math.Abs(gotRatio-wantRatio) > 0.25*wantRatio {
			t.Fatalf("frequency ratio p%d/p0 = %.2f, want ≈%.2f", i, gotRatio, wantRatio)
		}
	}
}

// TestIPLocalityRespectsBatchDistributionUnderUniformPriorities checks
// that with uniform priorities the IP sampler degenerates gracefully: all
// weights equal, runs expanded by the lowest predictor level (normalized
// priority ≈ 1 for all → longest run), and exact batch size.
func TestIPLocalityUniformPrioritiesDegenerate(t *testing.T) {
	b := NewBuffer(testSpec(256))
	s := NewIPLocalitySampler(b, 1)
	fillBuffer(b, 200)
	rng := rand.New(rand.NewSource(12))
	sample := draw(s, 64, rng)
	// Fresh transitions all carry max priority → normalized ≈1 → 4
	// neighbors per reference.
	if len(sample.Refs) != 16 {
		t.Fatalf("uniform-priority IP refs = %d, want 64/4 = 16", len(sample.Refs))
	}
	for _, w := range sample.Weights {
		if math.Abs(w-1) > 1e-9 {
			t.Fatalf("uniform-priority IP weight = %v, want 1", w)
		}
	}
}
