package replay

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSumTreeSetGetTotal(t *testing.T) {
	tr := NewSumTree(10)
	tr.Set(0, 1)
	tr.Set(5, 3)
	tr.Set(9, 0.5)
	if got := tr.Get(5); got != 3 {
		t.Fatalf("Get(5) = %v", got)
	}
	if got := tr.Total(); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("Total = %v, want 4.5", got)
	}
	tr.Set(5, 1) // overwrite must adjust the total
	if got := tr.Total(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("Total after overwrite = %v, want 2.5", got)
	}
}

func TestSumTreeFindBoundaries(t *testing.T) {
	tr := NewSumTree(4)
	tr.Set(0, 1)
	tr.Set(1, 2)
	tr.Set(2, 3)
	tr.Set(3, 4)
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.99, 0}, {1.0, 1}, {2.99, 1}, {3.0, 2}, {5.99, 2}, {6.0, 3}, {9.99, 3},
	}
	for _, c := range cases {
		if got := tr.Find(c.v); got != c.want {
			t.Fatalf("Find(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSumTreeFindNegativeClampsToZero(t *testing.T) {
	tr := NewSumTree(4)
	tr.Set(2, 1)
	if got := tr.Find(-5); got != 2 {
		t.Fatalf("Find(-5) = %d, want first nonzero leaf 2", got)
	}
}

func TestSumTreePanics(t *testing.T) {
	tr := NewSumTree(4)
	for _, f := range []func(){
		func() { tr.Set(-1, 1) },
		func() { tr.Set(4, 1) },
		func() { tr.Set(0, -1) },
		func() { tr.Get(7) },
		func() { tr.Find(0) }, // empty tree
		func() { NewSumTree(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: Find over a random tree is always consistent with the
// cumulative-sum definition.
func TestSumTreeFindMatchesLinearScanProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		tr := NewSumTree(n)
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = r.Float64() * 10
			tr.Set(i, ps[i])
		}
		if tr.Total() == 0 {
			return true
		}
		for trial := 0; trial < 20; trial++ {
			v := r.Float64() * tr.Total()
			got := tr.Find(v)
			// Linear scan reference.
			cum := 0.0
			want := n - 1
			for i, p := range ps {
				cum += p
				if v < cum {
					want = i
					break
				}
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPERFreshTransitionsGetMaxPriority(t *testing.T) {
	b := NewBuffer(testSpec(32))
	s := NewPERSampler(b)
	fillBuffer(b, 4)
	p0 := s.tree.Get(0)
	for i := 1; i < 4; i++ {
		if s.tree.Get(i) != p0 {
			t.Fatalf("fresh priorities differ: %v vs %v", s.tree.Get(i), p0)
		}
	}
	if p0 <= 0 {
		t.Fatal("fresh priority should be positive")
	}
}

func TestPERSampleShapesAndRanges(t *testing.T) {
	b := NewBuffer(testSpec(128))
	s := NewPERSampler(b)
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
		w := sample.Weights[i]
		if w <= 0 || w > 1+1e-12 {
			t.Fatalf("weight %v outside (0,1]", w)
		}
		if w > maxW {
			maxW = w
		}
	}
	if math.Abs(maxW-1) > 1e-9 {
		t.Fatalf("max weight = %v, want 1 after normalization", maxW)
	}
}

func TestPERHighPriorityDominatesSampling(t *testing.T) {
	b := NewBuffer(testSpec(64))
	s := NewPERSampler(b)
	fillBuffer(b, 50)
	// Crush all priorities except index 7.
	idx := make([]int, 50)
	td := make([]float64, 50)
	for i := range idx {
		idx[i] = i
		td[i] = 1e-9
	}
	td[7] = 100
	s.UpdatePriorities(idx, td)
	rng := rand.New(rand.NewSource(2))
	count7 := 0
	sample := draw(s, 1000, rng)
	for _, i := range sample.Indices {
		if i == 7 {
			count7++
		}
	}
	if count7 < 900 {
		t.Fatalf("high-priority index sampled only %d/1000 times", count7)
	}
}

func TestPERWeightsCounteractPriority(t *testing.T) {
	b := NewBuffer(testSpec(64))
	s := NewPERSampler(b)
	s.Beta = 1 // full compensation
	fillBuffer(b, 10)
	idx := make([]int, 10)
	td := make([]float64, 10)
	for i := range idx {
		idx[i] = i
		td[i] = 0.1
	}
	td[3] = 10 // much higher priority
	s.UpdatePriorities(idx, td)
	sample := draw(s, 256, rand.New(rand.NewSource(3)))
	var w3, wOther float64
	var n3, nOther int
	for i, ix := range sample.Indices {
		if ix == 3 {
			w3 += sample.Weights[i]
			n3++
		} else {
			wOther += sample.Weights[i]
			nOther++
		}
	}
	if n3 == 0 || nOther == 0 {
		t.Skip("sampling did not cover both groups")
	}
	// The over-sampled index must receive smaller IS weights.
	if w3/float64(n3) >= wOther/float64(nOther) {
		t.Fatalf("high-priority weight %v should be below low-priority %v", w3/float64(n3), wOther/float64(nOther))
	}
}

func TestPERUpdatePrioritiesLengthMismatchPanics(t *testing.T) {
	b := NewBuffer(testSpec(8))
	s := NewPERSampler(b)
	fillBuffer(b, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched UpdatePriorities did not panic")
		}
	}()
	s.UpdatePriorities([]int{0, 1}, []float64{1})
}

func TestPERNormalizedPriorityRange(t *testing.T) {
	b := NewBuffer(testSpec(16))
	s := NewPERSampler(b)
	fillBuffer(b, 8)
	s.UpdatePriorities([]int{0, 1}, []float64{5, 0.5})
	for i := 0; i < 8; i++ {
		w := s.NormalizedPriority(i)
		if w < 0 || w > 1 {
			t.Fatalf("normalized priority %v outside [0,1]", w)
		}
	}
	if s.NormalizedPriority(0) <= s.NormalizedPriority(1) {
		t.Fatal("higher TD error should map to higher normalized priority")
	}
}

func TestNeighborPredictorThresholds(t *testing.T) {
	p := DefaultNeighborPredictor()
	cases := []struct {
		w    float64
		want int
	}{
		{0.0, 1}, {0.32, 1}, {0.33, 2}, {0.5, 2}, {0.65, 2}, {0.66, 4}, {1.0, 4},
	}
	for _, c := range cases {
		if got := p.Predict(c.w); got != c.want {
			t.Fatalf("Predict(%v) = %d, want %d", c.w, got, c.want)
		}
	}
}

func TestNeighborPredictorMalformedPanics(t *testing.T) {
	p := NeighborPredictor{Thresholds: []float64{0.5}, Neighbors: []int{1}}
	defer func() {
		if recover() == nil {
			t.Fatal("malformed predictor did not panic")
		}
	}()
	p.Predict(0.2)
}

func TestIPLocalitySampleStructure(t *testing.T) {
	b := NewBuffer(testSpec(512))
	s := NewIPLocalitySampler(b, 1)
	fillBuffer(b, 400)
	sample := draw(s, 128, rand.New(rand.NewSource(4)))
	if len(sample.Indices) != 128 || len(sample.Weights) != 128 {
		t.Fatalf("sample sizes %d/%d", len(sample.Indices), len(sample.Weights))
	}
	if len(sample.Refs) == 0 {
		t.Fatal("IP sampler should record reference points")
	}
	for _, i := range sample.Indices {
		if i < 0 || i >= 400 {
			t.Fatalf("index %d out of range", i)
		}
	}
	maxW := 0.0
	for _, w := range sample.Weights {
		if w <= 0 || w > 1+1e-12 {
			t.Fatalf("weight %v outside (0,1]", w)
		}
		if w > maxW {
			maxW = w
		}
	}
	if math.Abs(maxW-1) > 1e-9 {
		t.Fatalf("max IP weight = %v, want 1", maxW)
	}
}

func TestIPLocalityHighPriorityGetsLongerRuns(t *testing.T) {
	b := NewBuffer(testSpec(256))
	s := NewIPLocalitySampler(b, 1)
	fillBuffer(b, 200)
	idx := make([]int, 200)
	td := make([]float64, 200)
	for i := range idx {
		idx[i] = i
		td[i] = 1e-6
	}
	td[50] = 10 // dominant priority → normalized ≈1 → 4 neighbors
	s.UpdatePriorities(idx, td)
	sample := draw(s, 64, rand.New(rand.NewSource(5)))
	// Nearly all refs should be 50 and expand to runs 50,51,52,53.
	hits := 0
	for _, i := range sample.Indices {
		if i >= 50 && i < 54 {
			hits++
		}
	}
	if hits < 32 {
		t.Fatalf("high-priority neighborhood sampled only %d/64", hits)
	}
}

func TestIPLocalityUpdateFeedsSharedTree(t *testing.T) {
	b := NewBuffer(testSpec(64))
	s := NewIPLocalitySampler(b, 1)
	fillBuffer(b, 10)
	before := s.per.tree.Get(3)
	s.UpdatePriorities([]int{3}, []float64{42})
	after := s.per.tree.Get(3)
	if after <= before {
		t.Fatalf("priority did not increase: %v -> %v", before, after)
	}
}

func TestIPLocalityBetaZeroGivesUniformWeights(t *testing.T) {
	b := NewBuffer(testSpec(128))
	s := NewIPLocalitySampler(b, 0) // β=0 → no compensation
	fillBuffer(b, 100)
	s.UpdatePriorities([]int{0, 1, 2}, []float64{9, 0.1, 3})
	sample := draw(s, 64, rand.New(rand.NewSource(6)))
	for _, w := range sample.Weights {
		if math.Abs(w-1) > 1e-12 {
			t.Fatalf("β=0 weight = %v, want 1", w)
		}
	}
}

// Property: IP sampler always returns exactly n in-range indices with
// matching weights, across random priority states.
func TestIPLocalityShapeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewBuffer(testSpec(128))
		s := NewIPLocalitySampler(b, 1)
		n := 10 + r.Intn(100)
		fillBuffer(b, n)
		// Random priority shake-up.
		var idx []int
		var td []float64
		for i := 0; i < n; i += 1 + r.Intn(3) {
			idx = append(idx, i)
			td = append(td, r.Float64()*5)
		}
		if len(idx) > 0 {
			s.UpdatePriorities(idx, td)
		}
		want := 1 + r.Intn(64)
		sample := draw(s, want, r)
		if len(sample.Indices) != want || len(sample.Weights) != want {
			return false
		}
		for _, i := range sample.Indices {
			if i < 0 || i >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
