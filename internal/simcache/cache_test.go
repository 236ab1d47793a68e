package simcache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func tinyCache() *Cache {
	// 4 sets × 2 ways × 64B lines = 512B.
	return NewCache(CacheConfig{Name: "tiny", SizeBytes: 512, Ways: 2, LineSize: 64})
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{Name: "ok", SizeBytes: 1024, Ways: 4, LineSize: 64}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []CacheConfig{
		{Name: "zero", SizeBytes: 0, Ways: 1, LineSize: 64},
		{Name: "ways", SizeBytes: 1024, Ways: 0, LineSize: 64},
		{Name: "line", SizeBytes: 1024, Ways: 4, LineSize: 0},
		{Name: "split", SizeBytes: 192, Ways: 4, LineSize: 64}, // 3 lines / 4 ways
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %q accepted", c.Name)
		}
	}
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := tinyCache()
	if c.Access(0) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0) {
		t.Fatal("repeat access should hit")
	}
	if !c.Access(63) {
		t.Fatal("same-line access should hit")
	}
	if c.Access(64) {
		t.Fatal("next line should cold-miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := tinyCache() // 4 sets, 2 ways
	// Three lines mapping to set 0: tags 0, 4, 8 (tag%4 == 0).
	a0 := uint64(0 * 64)
	a4 := uint64(4 * 64)
	a8 := uint64(8 * 64)
	c.Access(a0)
	c.Access(a4)
	c.Access(a0) // a0 now MRU; a4 is LRU
	c.Access(a8) // evicts a4
	if !c.Access(a0) {
		t.Fatal("a0 should survive (was MRU)")
	}
	if c.Access(a4) {
		t.Fatal("a4 should have been evicted")
	}
}

func TestCacheReset(t *testing.T) {
	c := tinyCache()
	c.Access(0)
	c.Reset()
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("Reset should clear counters")
	}
	if c.Access(0) {
		t.Fatal("Reset should clear contents")
	}
}

func TestHierarchySequentialBeatsRandom(t *testing.T) {
	// The core premise of the paper's optimization: sequential access
	// patterns produce far fewer misses than random gathers over a large
	// footprint.
	region := uint64(64 << 20) // 64 MiB working set
	rng := rand.New(rand.NewSource(1))

	seq := NewHierarchy(I79700K())
	for i := 0; i < 20000; i++ {
		seq.Access(uint64(i)*128, 128)
	}
	rnd := NewHierarchy(I79700K())
	for i := 0; i < 20000; i++ {
		rnd.Access(rng.Uint64()%region, 128)
	}
	seqMiss := seq.Stats().L3Misses
	rndMiss := rnd.Stats().L3Misses
	if seqMiss*2 >= rndMiss {
		t.Fatalf("sequential misses %d should be well under half of random %d", seqMiss, rndMiss)
	}
	seqTLB := seq.Stats().TLBMisses
	rndTLB := rnd.Stats().TLBMisses
	if seqTLB*2 >= rndTLB {
		t.Fatalf("sequential TLB misses %d should be well under half of random %d", seqTLB, rndTLB)
	}
}

func TestHierarchyPrefetcherHelpsStreams(t *testing.T) {
	with := NewHierarchy(I79700K())
	without := NewHierarchy(I79700K())
	without.Prefetcher = false
	for i := 0; i < 5000; i++ {
		addr := uint64(i) * 64
		with.Access(addr, 64)
		without.Access(addr, 64)
	}
	if with.Stats().L1Misses >= without.Stats().L1Misses {
		t.Fatalf("prefetcher should reduce stream misses: %d vs %d", with.Stats().L1Misses, without.Stats().L1Misses)
	}
}

func TestHierarchyAccessSpanningLines(t *testing.T) {
	h := NewHierarchy(I79700K())
	h.Access(0, 256) // 4 lines
	if got := h.Stats().LineProbes; got != 4 {
		t.Fatalf("256B access probed %d lines, want 4", got)
	}
	if got := h.Stats().Accesses; got != 1 {
		t.Fatalf("Accesses = %d, want 1", got)
	}
}

func TestHierarchyZeroSizeCountsOneByte(t *testing.T) {
	h := NewHierarchy(I79700K())
	h.Access(100, 0)
	if got := h.Stats().LineProbes; got != 1 {
		t.Fatalf("zero-size access probed %d lines, want 1", got)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := NewHierarchy(I79700K())
	h.Access(0, 64)
	h.Reset()
	if h.Stats() != (Stats{}) {
		t.Fatal("Reset should clear stats")
	}
}

func TestPlatformsValidate(t *testing.T) {
	for _, p := range []Platform{Ryzen3975WX(), I79700K(), GTX1070()} {
		for _, cfg := range []CacheConfig{p.L1, p.L2, p.L3, p.TLB} {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", p.Name, cfg.Name, err)
			}
		}
		NewHierarchy(p) // must not panic
	}
}

func TestRyzenTLBMatchesTableII(t *testing.T) {
	p := Ryzen3975WX()
	if entries := p.TLB.SizeBytes / p.TLB.LineSize; entries != 3072 {
		t.Fatalf("dTLB entries = %d, want 3072 (Table II)", entries)
	}
	if p.L3.SizeBytes != 128<<20 {
		t.Fatalf("L3 = %d bytes, want 128 MiB (Table II)", p.L3.SizeBytes)
	}
}

func TestModeledTimeMonotoneInMisses(t *testing.T) {
	p := I79700K()
	low := Stats{L1Hits: 100}
	high := Stats{L1Hits: 50, L3Misses: 50}
	if p.ModeledTimeNS(low, 0) >= p.ModeledTimeNS(high, 0) {
		t.Fatal("more memory trips should model as slower")
	}
}

func TestModeledTimeTransferTermOnlyOnGPU(t *testing.T) {
	s := Stats{L1Hits: 100}
	cpu := I79700K()
	gpu := GTX1070()
	if cpu.ModeledTimeNS(s, 1<<20) != cpu.ModeledTimeNS(s, 0) {
		t.Fatal("CPU-only platform should not charge transfer time")
	}
	if gpu.ModeledTimeNS(s, 1<<20) <= gpu.ModeledTimeNS(s, 0) {
		t.Fatal("GPU platform should charge transfer time")
	}
}

// Property: hits + misses always equals total probes at every level.
func TestHierarchyConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHierarchy(I79700K())
		h.Prefetcher = r.Intn(2) == 0
		for i := 0; i < 500; i++ {
			h.Access(r.Uint64()%(1<<30), 1+r.Intn(512))
		}
		s := h.Stats()
		if s.L1Hits+s.L1Misses != s.LineProbes {
			return false
		}
		if s.L2Hits+s.L2Misses != s.L1Misses {
			return false
		}
		if s.L3Hits+s.L3Misses != s.L2Misses {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
