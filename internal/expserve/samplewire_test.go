package expserve

// Tests for the sample path as a plain -replay-addr drives it — a one-group
// fabric: the striped concurrent client and the prefetch overlap source,
// which must be a pure timing optimization, bit-invisible to training.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"marlperf/internal/faultnet"
	"marlperf/internal/replay"
	"marlperf/internal/telemetry"
)

// sampleAll runs SampleBatch for every seed and flattens the results into
// comparable per-seed snapshots.
func sampleAll(t *testing.T, src replay.TransitionSource, batch int, seeds []int64) [][]float64 {
	t.Helper()
	out := make([][]float64, len(seeds))
	for i, seed := range seeds {
		dst := []*replay.AgentBatch{replay.NewAgentBatch(batch, 3, 2), replay.NewAgentBatch(batch, 4, 2)}
		idx, err := src.SampleBatch(batch, seed, dst)
		if err != nil {
			t.Fatal(err)
		}
		var flat []float64
		for _, v := range idx {
			flat = append(flat, float64(v))
		}
		for a := 0; a < 2; a++ {
			flat = append(flat, dst[a].Obs.Data...)
			flat = append(flat, dst[a].Act.Data...)
			flat = append(flat, dst[a].Rew.Data...)
			flat = append(flat, dst[a].NextObs.Data...)
			flat = append(flat, dst[a].Done.Data...)
		}
		out[i] = flat
	}
	return out
}

// fillServer ships rows rows through a sink so the fabric has something to
// sample.
func fillServer(t *testing.T, f *Fabric, spec replay.Spec, rows int) {
	t.Helper()
	sink, err := NewShardedSink(f, "actor-0", spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < rows; i++ {
		obs, act, rew, nxt, done := step(rng)
		if err := sink.Add(obs, act, rew, nxt, done); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
}

// The striped client must give concurrent update workers the same bytes a
// serial reference gets: no scratch sharing, no cross-talk between in-flight
// samples. Run under -race in CI.
func TestStripedClientConcurrentSamplers(t *testing.T) {
	spec := testSpec(256)
	plan := replay.SamplePlan{Strategy: replay.PlanLocality, Neighbors: 8, Refs: 4}
	_, hs := newTestServer(t, spec, nil)
	opts := fastOpts
	opts.Conns = 4
	f := oneGroupFabric(t, hs.URL, opts)
	fillServer(t, f, spec, 300)

	remote, err := NewShardedSource(f, spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 32
	seeds := make([]int64, 24)
	for i := range seeds {
		seeds[i] = int64(1000 + i*17)
	}
	want := sampleAll(t, remote, batch, seeds)

	const workers = 8
	got := make([][]float64, len(seeds))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := make(chan int, len(seeds))
	for i := range seeds {
		next <- i
	}
	close(next)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				dst := []*replay.AgentBatch{replay.NewAgentBatch(batch, 3, 2), replay.NewAgentBatch(batch, 4, 2)}
				idx, err := remote.SampleBatch(batch, seeds[i], dst)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				var flat []float64
				for _, v := range idx {
					flat = append(flat, float64(v))
				}
				for a := 0; a < 2; a++ {
					flat = append(flat, dst[a].Obs.Data...)
					flat = append(flat, dst[a].Act.Data...)
					flat = append(flat, dst[a].Rew.Data...)
					flat = append(flat, dst[a].NextObs.Data...)
					flat = append(flat, dst[a].Done.Data...)
				}
				got[i] = flat
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	for i := range seeds {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("seed %d: %d values, want %d", seeds[i], len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("seed %d diverged at %d under concurrency", seeds[i], j)
			}
		}
	}
}

// A prefetched batch must be the exact bytes a synchronous fetch returns,
// and announced seeds must actually be served from the prefetch (hits), not
// silently re-fetched.
func TestPrefetchHitBitIdentical(t *testing.T) {
	spec := testSpec(256)
	plan := replay.SamplePlan{Strategy: replay.PlanUniform}
	_, hs := newTestServer(t, spec, nil)
	f := oneGroupFabric(t, hs.URL, fastOpts)
	fillServer(t, f, spec, 300)

	refSrc, err := NewShardedSource(f, spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 32
	seeds := []int64{41, 42, 43, 44}
	want := sampleAll(t, refSrc, batch, seeds)

	reg := telemetry.NewRegistry()
	src, err := NewShardedSource(f, spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	pf := NewPrefetchSource(src, 4, reg)
	pf.PrefetchBatch(batch, seeds)
	got := sampleAll(t, pf, batch, seeds)
	for i := range seeds {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("seed %d: prefetched batch diverged at %d", seeds[i], j)
			}
		}
	}
	hits := reg.Counter("marl_exp_prefetch_hit_total").Value()
	misses := reg.Counter("marl_exp_prefetch_miss_total").Value()
	if hits != uint64(len(seeds)) || misses != 0 {
		t.Fatalf("hits=%d misses=%d, want %d/0", hits, misses, len(seeds))
	}

	// Unannounced seeds fall back to the synchronous path and count as
	// misses — and still return correct bytes.
	want2 := sampleAll(t, refSrc, batch, []int64{77})
	got2 := sampleAll(t, pf, batch, []int64{77})
	for j := range want2[0] {
		if got2[0][j] != want2[0][j] {
			t.Fatalf("unannounced seed diverged at %d", j)
		}
	}
	if m := reg.Counter("marl_exp_prefetch_miss_total").Value(); m != 1 {
		t.Fatalf("miss counter %d, want 1", m)
	}
}

// Under an injected slow/lossy link every batch, hit or fallback, stays
// bit-identical to the fault-free reference. No seed is trained twice or
// skipped: sampleAll consumes each seed exactly once.
func TestPrefetchFallsBackUnderFaults(t *testing.T) {
	spec := testSpec(256)
	plan := replay.SamplePlan{Strategy: replay.PlanLocality, Neighbors: 8, Refs: 4}
	const batch = 32
	seeds := []int64{901, 902, 903, 904, 905, 906}

	// Fault-free reference.
	_, cleanHS := newTestServer(t, spec, nil)
	cleanF := oneGroupFabric(t, cleanHS.URL, fastOpts)
	fillServer(t, cleanF, spec, 300)
	refSrc, err := NewShardedSource(cleanF, spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleAll(t, refSrc, batch, seeds)

	// Faulty run: drops, errors and delays on the wire; generous retries
	// so nothing ultimately fails.
	_, hs := newTestServer(t, spec, nil)
	inj := faultnet.New(77)
	if err := inj.SetRule("learner→replay", faultnet.Rule{Drop: 0.1, Error: 0.1, Delay: 2 * time.Millisecond, DelayProb: 0.5}); err != nil {
		t.Fatal(err)
	}
	f := oneGroupFabric(t, hs.URL, ClientOptions{
		Timeout:          5 * time.Second,
		Attempts:         50,
		BaseDelay:        time.Millisecond,
		MaxDelay:         5 * time.Millisecond,
		BreakerThreshold: -1,
		JitterSeed:       1,
		Transport:        inj.RoundTripper("learner→replay", nil),
	})
	fillServer(t, f, spec, 300)

	src, err := NewShardedSource(f, spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	pf := NewPrefetchSource(src, 4, reg)
	pf.PrefetchBatch(batch, seeds)
	got := sampleAll(t, pf, batch, seeds)

	if cnt := inj.Counts("learner→replay"); cnt.Dropped == 0 && cnt.Errored == 0 && cnt.Delayed == 0 {
		t.Fatalf("fault injection never fired (%+v); the run proved nothing", cnt)
	}
	for i := range seeds {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("seed %d: %d values, want %d", seeds[i], len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("seed %d diverged at %d under faults", seeds[i], j)
			}
		}
	}
	hits := reg.Counter("marl_exp_prefetch_hit_total").Value()
	misses := reg.Counter("marl_exp_prefetch_miss_total").Value()
	if hits+misses != uint64(len(seeds)) {
		t.Fatalf("hits %d + misses %d != %d consumed seeds", hits, misses, len(seeds))
	}
}
