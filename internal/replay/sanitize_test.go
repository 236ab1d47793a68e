package replay

import (
	"math"
	"math/rand"
	"testing"
)

func poisonedTDs() []float64 {
	return []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3.5, 0.7}
}

func TestPERSanitizesPoisonedPriorities(t *testing.T) {
	b := NewBuffer(testSpec(16))
	s := NewPERSampler(b)
	fillBuffer(b, 10)
	s.UpdatePriorities([]int{0, 1, 2, 3, 4}, poisonedTDs())
	if got := s.SanitizedCount(); got != 4 {
		t.Fatalf("SanitizedCount = %d, want 4", got)
	}
	total := s.tree.Total()
	if math.IsNaN(total) || math.IsInf(total, 0) || total <= 0 {
		t.Fatalf("sum tree total poisoned: %v", total)
	}
	if s.maxPriority != 1 {
		t.Fatalf("maxPriority = %v, poisoned values must not raise it", s.maxPriority)
	}
	// Sampling must still work and produce finite weights.
	rng := rand.New(rand.NewSource(3))
	sample := draw(s, 8, rng)
	for i, w := range sample.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("weight %d = %v after sanitization", i, w)
		}
	}
	// Clean updates keep counting from where they were.
	s.UpdatePriorities([]int{5}, []float64{2.0})
	if got := s.SanitizedCount(); got != 4 {
		t.Fatalf("clean update changed SanitizedCount to %d", got)
	}
	if s.maxPriority != 2 {
		t.Fatalf("maxPriority = %v, want 2", s.maxPriority)
	}
}

func TestRankPERSanitizesPoisonedPriorities(t *testing.T) {
	b := NewBuffer(testSpec(16))
	s := NewRankPERSampler(b)
	fillBuffer(b, 10)
	s.UpdatePriorities([]int{0, 1, 2, 3, 4}, poisonedTDs())
	if got := s.SanitizedCount(); got != 4 {
		t.Fatalf("SanitizedCount = %d, want 4", got)
	}
	for i, p := range s.priorities[:10] {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			t.Fatalf("priority %d = %v after sanitization", i, p)
		}
	}
	rng := rand.New(rand.NewSource(3))
	sample := draw(s, 8, rng)
	for i, w := range sample.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("weight %d = %v after sanitization", i, w)
		}
	}
}

func TestIPLocalitySanitizesThroughSharedCore(t *testing.T) {
	b := NewBuffer(testSpec(16))
	s := NewIPLocalitySampler(b, 1)
	fillBuffer(b, 10)
	s.UpdatePriorities([]int{0, 1}, []float64{math.NaN(), 0.5})
	if got := s.SanitizedCount(); got != 1 {
		t.Fatalf("SanitizedCount = %d, want 1", got)
	}
	if total := s.per.tree.Total(); math.IsNaN(total) || math.IsInf(total, 0) {
		t.Fatalf("shared tree total poisoned: %v", total)
	}
}

func TestSanitizePriority(t *testing.T) {
	cases := []struct {
		in      float64
		want    float64
		clamped bool
	}{
		{0.5, 0.5, false},
		{0, 0, false},
		{math.MaxFloat64, math.MaxFloat64, false},
		{math.NaN(), priorityFloor, true},
		{math.Inf(1), priorityFloor, true},
		{math.Inf(-1), priorityFloor, true},
		{-1e-9, priorityFloor, true},
	}
	for _, tc := range cases {
		got, clamped := sanitizePriority(tc.in)
		if got != tc.want || clamped != tc.clamped {
			t.Fatalf("sanitizePriority(%v) = %v, %v", tc.in, got, clamped)
		}
	}
}
