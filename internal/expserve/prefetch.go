package expserve

import (
	"sync"

	"marlperf/internal/replay"
	"marlperf/internal/telemetry"
)

// PrefetchSource overlaps sample RPCs with learner compute. The trainer
// announces the next update round's (n, seed) pairs via PrefetchBatch; this
// source launches the RPCs immediately (bounded by the stripe count) so
// that by the time an update worker calls SampleBatch the reply is already
// decoded — the network round trip hides behind gradient math instead of
// serializing with it.
//
// Correctness does not depend on the prefetcher at all: batch content is a
// pure function of (plan, length, seed), so a prefetched reply is
// byte-identical to the one a synchronous call would have fetched. Every
// SampleBatch whose seed was not announced or whose prefetch errored simply
// falls back to a synchronous fetch; an announced prefetch still in flight is
// awaited, its retries bounded by the client's own deadline. Prefetching
// therefore changes timing only — training remains bit-identical with the
// feature on or off, across worker counts and under injected network faults.
type PrefetchSource struct {
	*ShardedSource

	slots chan struct{} // bounds concurrent prefetch RPCs to the stripe count

	mu      sync.Mutex
	pending map[prefetchKey]*prefetchEntry
	gen     uint64

	hits   *telemetry.Counter
	misses *telemetry.Counter
}

type prefetchKey struct {
	n    int
	seed int64
}

// prefetchEntry is one announced fetch. done closes once sc/err are set.
// abandoned flags a pruned stale round; whoever loses the race owns
// returning sc to the pool.
type prefetchEntry struct {
	done      chan struct{}
	sc        *shardScratch
	err       error
	gen       uint64
	abandoned bool
}

// NewPrefetchSource wraps src with prefetch overlap. stripes bounds the
// number of concurrent prefetch RPCs (match the client's Conns so hinted
// fetches pipeline across all warm connections without queueing behind each
// other); reg, when non-nil, receives marl_exp_prefetch_hit_total /
// marl_exp_prefetch_miss_total.
func NewPrefetchSource(src *ShardedSource, stripes int, reg *telemetry.Registry) *PrefetchSource {
	if stripes < 1 {
		stripes = 1
	}
	p := &PrefetchSource{
		ShardedSource: src,
		slots:         make(chan struct{}, stripes),
		pending:       make(map[prefetchKey]*prefetchEntry),
	}
	if reg != nil {
		reg.SetHelp("marl_exp_prefetch_hit_total", "Sample batches served from a completed prefetch.")
		reg.SetHelp("marl_exp_prefetch_miss_total", "Sample batches fetched synchronously (no or late prefetch).")
		p.hits = reg.Counter("marl_exp_prefetch_hit_total")
		p.misses = reg.Counter("marl_exp_prefetch_miss_total")
	}
	return p
}

// PrefetchBatch implements replay.BatchPrefetcher: launch one RPC per seed
// (deduplicated) and return without waiting for any of them. Entries from
// earlier rounds that were never consumed are abandoned here, so a learner
// that skips an update (store drained, config change) cannot leak pooled
// buffers or grow the pending map without bound.
func (p *PrefetchSource) PrefetchBatch(n int, seeds []int64) {
	p.mu.Lock()
	p.gen++
	gen := p.gen
	for key, e := range p.pending {
		if e.gen < gen {
			e.abandoned = true
			delete(p.pending, key)
			go p.reap(e)
		}
	}
	launch := make([]*prefetchEntry, 0, len(seeds))
	keys := make([]prefetchKey, 0, len(seeds))
	for _, seed := range seeds {
		key := prefetchKey{n: n, seed: seed}
		if _, ok := p.pending[key]; ok {
			continue
		}
		e := &prefetchEntry{done: make(chan struct{}), gen: gen}
		p.pending[key] = e
		launch = append(launch, e)
		keys = append(keys, key)
	}
	p.mu.Unlock()
	for i, e := range launch {
		go p.run(keys[i], e)
	}
}

// run performs one prefetch RPC under a stripe slot.
func (p *PrefetchSource) run(key prefetchKey, e *prefetchEntry) {
	p.slots <- struct{}{}
	sc := p.acquireFetch()
	err := p.runFetch(key.n, key.seed, sc)
	<-p.slots
	if err != nil {
		p.releaseFetch(sc)
		sc = nil
	}
	p.mu.Lock()
	if e.abandoned {
		// Nobody will consume this entry: keep sc out of it so the reaper
		// cannot release the same scratch twice.
		e.err = err
		p.mu.Unlock()
		close(e.done)
		if sc != nil {
			p.releaseFetch(sc)
		}
		return
	}
	e.sc, e.err = sc, err
	p.mu.Unlock()
	close(e.done)
}

// reap waits out an abandoned entry's RPC and returns its buffers.
func (p *PrefetchSource) reap(e *prefetchEntry) {
	<-e.done
	p.mu.Lock()
	sc := e.sc
	e.sc = nil
	p.mu.Unlock()
	if sc != nil {
		p.releaseFetch(sc)
	}
}

// SampleBatch implements replay.TransitionSource. A completed prefetch for
// (n, seed) is consumed without touching the network; anything else — not
// announced or errored — falls back to the wrapped source's synchronous
// path, which returns the exact same bytes. An announced prefetch still in
// flight is awaited: its retries are bounded by the client's own deadline,
// so this cannot hang past an outage verdict.
func (p *PrefetchSource) SampleBatch(n int, seed int64, dst []*replay.AgentBatch) ([]int, error) {
	key := prefetchKey{n: n, seed: seed}
	p.mu.Lock()
	e := p.pending[key]
	if e != nil {
		delete(p.pending, key)
	}
	p.mu.Unlock()
	if e == nil {
		return p.miss(n, seed, dst)
	}
	<-e.done
	p.mu.Lock()
	sc, err := e.sc, e.err
	e.sc = nil
	p.mu.Unlock()
	if err != nil || sc == nil {
		return p.miss(n, seed, dst)
	}
	defer p.releaseFetch(sc)
	idx := p.consumeFetch(sc, n, dst)
	if p.hits != nil {
		p.hits.Inc()
	}
	return idx, nil
}

// miss is the synchronous fallback path.
func (p *PrefetchSource) miss(n int, seed int64, dst []*replay.AgentBatch) ([]int, error) {
	if p.misses != nil {
		p.misses.Inc()
	}
	return p.ShardedSource.SampleBatch(n, seed, dst)
}

var (
	_ replay.TransitionSource = (*PrefetchSource)(nil)
	_ replay.BatchPrefetcher  = (*PrefetchSource)(nil)
)
