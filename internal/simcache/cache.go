// Package simcache is a trace-driven memory-hierarchy simulator standing in
// for the hardware performance counters the paper reads with perf. The
// replay buffers emit logical address traces of their gather loops; this
// package replays them through configurable set-associative L1/L2/L3 caches
// plus a dTLB model and reports hit/miss statistics, from which the
// characterization experiments (Figure 4) and the cross-platform modeled
// times (Figures 12-13) are derived.
package simcache

import "fmt"

// CacheConfig describes one set-associative cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Ways      int
	LineSize  int // bytes per line; for TLBs this is the page size
}

// Validate reports whether the configuration is realizable.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("simcache: %s has non-positive geometry", c.Name)
	}
	lines := c.SizeBytes / c.LineSize
	if lines%c.Ways != 0 || lines < c.Ways {
		return fmt.Errorf("simcache: %s: %d lines not divisible into %d ways", c.Name, lines, c.Ways)
	}
	return nil
}

type line struct {
	tag     uint64
	valid   bool
	lastUse uint64
}

// Cache is one LRU set-associative cache level.
type Cache struct {
	cfg     CacheConfig
	numSets int
	sets    []line // numSets × ways, flattened
	clock   uint64

	Hits   uint64
	Misses uint64
}

// NewCache builds a cache from cfg, panicking on invalid geometry.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / cfg.LineSize / cfg.Ways
	return &Cache{
		cfg:     cfg,
		numSets: numSets,
		sets:    make([]line, numSets*cfg.Ways),
	}
}

// Access looks up the line containing addr, filling it on a miss (LRU
// eviction). It returns true on a hit.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	tag := addr / uint64(c.cfg.LineSize)
	set := int(tag % uint64(c.numSets))
	ways := c.sets[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
	victim := 0
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lastUse = c.clock
			c.Hits++
			return true
		}
		if !ways[i].valid {
			victim = i
		} else if ways[victim].valid && ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	ways[victim] = line{tag: tag, valid: true, lastUse: c.clock}
	c.Misses++
	return false
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.sets {
		c.sets[i] = line{}
	}
	c.clock = 0
	c.Hits = 0
	c.Misses = 0
}

// Stats aggregates the counters of a full hierarchy walk.
type Stats struct {
	Accesses   uint64 // traced logical accesses (instruction proxy)
	LineProbes uint64 // cache-line granular probes issued
	L1Hits     uint64
	L1Misses   uint64
	L2Hits     uint64
	L2Misses   uint64
	L3Hits     uint64
	L3Misses   uint64 // trips to memory ("cache misses" in Figure 4)
	TLBHits    uint64
	TLBMisses  uint64 // dTLB load misses in Figure 4
}

// Hierarchy is a three-level cache plus dTLB, fed by Access. It implements
// replay.Tracer.
type Hierarchy struct {
	L1, L2, L3 *Cache
	TLB        *Cache
	stats      Stats

	// Prefetcher models the hardware next-line prefetcher the paper's
	// locality-aware sampling is designed to exploit: on an L1 miss whose
	// predecessor line was recently touched (a detected stream), the next
	// line is pulled into the hierarchy without being counted as a demand
	// miss.
	Prefetcher   bool
	lastLine     uint64
	streakLength int
}

// NewHierarchy builds the hierarchy for a platform.
func NewHierarchy(p Platform) *Hierarchy {
	return &Hierarchy{
		L1:         NewCache(p.L1),
		L2:         NewCache(p.L2),
		L3:         NewCache(p.L3),
		TLB:        NewCache(p.TLB),
		Prefetcher: true,
	}
}

// Access replays one logical access of size bytes at addr, touching every
// cache line and page it spans.
func (h *Hierarchy) Access(addr uint64, size int) {
	h.stats.Accesses++
	if size <= 0 {
		size = 1
	}
	lineSize := uint64(h.L1.cfg.LineSize)
	first := addr / lineSize
	last := (addr + uint64(size) - 1) / lineSize
	pageSize := uint64(h.TLB.cfg.LineSize)
	firstPage := addr / pageSize
	lastPage := (addr + uint64(size) - 1) / pageSize
	for p := firstPage; p <= lastPage; p++ {
		if h.TLB.Access(p * pageSize) {
			h.stats.TLBHits++
		} else {
			h.stats.TLBMisses++
		}
	}
	for l := first; l <= last; l++ {
		h.probeLine(l * lineSize)
		// Stream detection: consecutive line touches arm the prefetcher.
		if h.Prefetcher {
			if l == h.lastLine+1 {
				h.streakLength++
				if h.streakLength >= 2 {
					h.prefetchLine((l + 1) * lineSize)
				}
			} else if l != h.lastLine {
				h.streakLength = 0
			}
			h.lastLine = l
		}
	}
}

// probeLine walks one line address down the hierarchy, counting demand
// hits/misses at each level.
func (h *Hierarchy) probeLine(lineAddr uint64) {
	h.stats.LineProbes++
	if h.L1.Access(lineAddr) {
		h.stats.L1Hits++
		return
	}
	h.stats.L1Misses++
	if h.L2.Access(lineAddr) {
		h.stats.L2Hits++
		return
	}
	h.stats.L2Misses++
	if h.L3.Access(lineAddr) {
		h.stats.L3Hits++
		return
	}
	h.stats.L3Misses++
}

// prefetchLine installs a line in all levels without counting demand stats.
func (h *Hierarchy) prefetchLine(lineAddr uint64) {
	h.L1.Access(lineAddr)
	h.L2.Access(lineAddr)
	h.L3.Access(lineAddr)
}

// Stats returns a snapshot of the accumulated counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Reset clears cache contents and counters.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.L3.Reset()
	h.TLB.Reset()
	h.stats = Stats{}
	h.lastLine = 0
	h.streakLength = 0
}
