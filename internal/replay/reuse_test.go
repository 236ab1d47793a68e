package replay

import (
	"math/rand"
	"testing"
)

func TestReuseSamplerReusesWithinWindow(t *testing.T) {
	b := NewBuffer(testSpec(128))
	fillBuffer(b, 100)
	s := NewReuseSampler(NewUniformSampler(b), 3)
	rng := rand.New(rand.NewSource(1))
	first := draw(s, 16, rng)
	second := draw(s, 16, rng)
	third := draw(s, 16, rng)
	for i := range first.Indices {
		if first.Indices[i] != second.Indices[i] || first.Indices[i] != third.Indices[i] {
			t.Fatal("indices changed within the reuse window")
		}
	}
	fourth := draw(s, 16, rng)
	same := true
	for i := range first.Indices {
		if first.Indices[i] != fourth.Indices[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("indices did not refresh after the window expired")
	}
}

func TestReuseSamplerWindowOneEqualsInner(t *testing.T) {
	b := NewBuffer(testSpec(64))
	fillBuffer(b, 50)
	s := NewReuseSampler(NewUniformSampler(b), 1)
	rng := rand.New(rand.NewSource(2))
	a := draw(s, 8, rng)
	c := draw(s, 8, rng)
	same := true
	for i := range a.Indices {
		if a.Indices[i] != c.Indices[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("window=1 should resample every call")
	}
}

func TestReuseSamplerBatchSizeChangeInvalidates(t *testing.T) {
	b := NewBuffer(testSpec(64))
	fillBuffer(b, 50)
	s := NewReuseSampler(NewUniformSampler(b), 5)
	rng := rand.New(rand.NewSource(3))
	draw(s, 8, rng)
	bigger := draw(s, 16, rng)
	if len(bigger.Indices) != 16 {
		t.Fatalf("batch-size change returned %d indices, want 16", len(bigger.Indices))
	}
}

func TestReuseSamplerForwardsPriorities(t *testing.T) {
	b := NewBuffer(testSpec(64))
	per := NewPERSampler(b)
	fillBuffer(b, 20)
	s := NewReuseSampler(per, 2)
	before := per.tree.Get(5)
	s.UpdatePriorities([]int{5}, []float64{50})
	if per.tree.Get(5) <= before {
		t.Fatal("priorities not forwarded to inner PER sampler")
	}
}

func TestReuseSamplerNoopPrioritiesOnPlainInner(t *testing.T) {
	b := NewBuffer(testSpec(64))
	fillBuffer(b, 20)
	s := NewReuseSampler(NewUniformSampler(b), 2)
	s.UpdatePriorities([]int{1}, []float64{1}) // must not panic
}

func TestReuseSamplerBadWindowPanics(t *testing.T) {
	b := NewBuffer(testSpec(8))
	defer func() {
		if recover() == nil {
			t.Fatal("window 0 did not panic")
		}
	}()
	NewReuseSampler(NewUniformSampler(b), 0)
}

func TestReuseSamplerName(t *testing.T) {
	b := NewBuffer(testSpec(8))
	s := NewReuseSampler(NewLocalitySampler(b, 16, 64), 4)
	if s.Name() != "reuse(w=4,locality(n=16,ref=64))" {
		t.Fatalf("Name = %q", s.Name())
	}
}
