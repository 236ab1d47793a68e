package replay

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRankPERSampleShapes(t *testing.T) {
	b := NewBuffer(testSpec(128))
	s := NewRankPERSampler(b)
	fillBuffer(b, 100)
	sample := draw(s, 64, rand.New(rand.NewSource(1)))
	if len(sample.Indices) != 64 || len(sample.Weights) != 64 {
		t.Fatalf("sample sizes %d/%d", len(sample.Indices), len(sample.Weights))
	}
	maxW := 0.0
	for i, idx := range sample.Indices {
		if idx < 0 || idx >= 100 {
			t.Fatalf("index %d out of range", idx)
		}
		if sample.Weights[i] <= 0 || sample.Weights[i] > 1+1e-12 {
			t.Fatalf("weight %v outside (0,1]", sample.Weights[i])
		}
		if sample.Weights[i] > maxW {
			maxW = sample.Weights[i]
		}
	}
	if math.Abs(maxW-1) > 1e-9 {
		t.Fatalf("max weight = %v, want 1", maxW)
	}
}

func TestRankPERTopRankDominates(t *testing.T) {
	b := NewBuffer(testSpec(64))
	s := NewRankPERSampler(b)
	fillBuffer(b, 40)
	idx := make([]int, 40)
	td := make([]float64, 40)
	for i := range idx {
		idx[i] = i
		td[i] = 0.001
	}
	td[13] = 100 // rank 1
	s.UpdatePriorities(idx, td)
	sample := draw(s, 400, rand.New(rand.NewSource(2)))
	count := 0
	for _, i := range sample.Indices {
		if i == 13 {
			count++
		}
	}
	// Rank 1 of 40 carries 1/H(40) ≈ 23% of the mass.
	if count < 50 {
		t.Fatalf("rank-1 transition sampled only %d/400 times", count)
	}
}

func TestRankPERLessSensitiveToOutliersThanProportional(t *testing.T) {
	// With one extreme TD error, proportional sampling concentrates almost
	// entirely on it while rank-based keeps a bounded share — the property
	// that motivates the variant.
	spec := testSpec(64)
	count := func(s PrioritySampler) int {
		idx := make([]int, 40)
		td := make([]float64, 40)
		for i := range idx {
			idx[i] = i
			td[i] = 0.01
		}
		td[7] = 1e6
		s.UpdatePriorities(idx, td)
		sample := draw(s, 400, rand.New(rand.NewSource(3)))
		c := 0
		for _, i := range sample.Indices {
			if i == 7 {
				c++
			}
		}
		return c
	}
	bProp := NewBuffer(spec)
	prop := NewPERSampler(bProp)
	fillBuffer(bProp, 40)
	bRank := NewBuffer(spec)
	rank := NewRankPERSampler(bRank)
	fillBuffer(bRank, 40)
	cProp := count(prop)
	cRank := count(rank)
	if cRank >= cProp {
		t.Fatalf("rank-based (%d) should concentrate less than proportional (%d)", cRank, cProp)
	}
}

func TestRankPERRebuildAfterUpdates(t *testing.T) {
	b := NewBuffer(testSpec(32))
	s := NewRankPERSampler(b)
	fillBuffer(b, 10)
	rng := rand.New(rand.NewSource(4))
	draw(s, 8, rng) // builds order
	// Promote index 9 to rank 1 and verify sampling notices.
	s.UpdatePriorities([]int{9}, []float64{50})
	sample := draw(s, 200, rng)
	count := 0
	for _, i := range sample.Indices {
		if i == 9 {
			count++
		}
	}
	if count < 20 {
		t.Fatalf("updated priority ignored: index 9 sampled %d/200", count)
	}
}

func TestRankPERPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"empty sample", func() {
			s := NewRankPERSampler(NewBuffer(testSpec(8)))
			draw(s, 4, rand.New(rand.NewSource(1)))
		}},
		{"length mismatch", func() {
			b := NewBuffer(testSpec(8))
			s := NewRankPERSampler(b)
			fillBuffer(b, 2)
			s.UpdatePriorities([]int{0, 1}, []float64{1})
		}},
		{"bad index", func() {
			s := NewRankPERSampler(NewBuffer(testSpec(8)))
			s.UpdatePriorities([]int{999}, []float64{1})
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

// Property: the rank order always holds — higher priority ⇒ earlier rank.
func TestRankPEROrderInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewBuffer(testSpec(64))
		s := NewRankPERSampler(b)
		n := 5 + r.Intn(50)
		fillBuffer(b, n)
		var idx []int
		var td []float64
		for i := 0; i < n; i++ {
			idx = append(idx, i)
			td = append(td, r.Float64()*10)
		}
		s.UpdatePriorities(idx, td)
		draw(s, 4, r) // force rebuild
		for i := 1; i < len(s.order); i++ {
			if s.priorities[s.order[i-1]] < s.priorities[s.order[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
