package expserve

// Acceptance property from the chaos work: when injected faults only
// retry-delay committed data (drops and 5xx on the wire, never a lost
// acknowledged batch), the rows that land and the batches sampled out are
// bit-identical to a fault-free run at the same seeds. Resilience is
// allowed to cost time, never bits.

import (
	"math/rand"
	"testing"
	"time"

	"marlperf/internal/faultnet"
	"marlperf/internal/replay"
)

func TestRemoteBitIdenticalThroughFaultyTransport(t *testing.T) {
	spec := testSpec(256)
	plan := replay.SamplePlan{Strategy: replay.PlanLocality, Neighbors: 8, Refs: 4}

	run := func(inj *faultnet.Injector) ([]int, []float64, []float64) {
		t.Helper()
		_, hs := newTestServer(t, spec, nil)
		opts := ClientOptions{
			Timeout:   5 * time.Second,
			Attempts:  12,
			BaseDelay: time.Millisecond,
			MaxDelay:  5 * time.Millisecond,
			// A breaker would add fail-fast windows; determinism of the
			// payload does not depend on it, but the run should never give
			// up, so keep every request riding through.
			BreakerThreshold: -1,
			JitterSeed:       1,
		}
		if inj != nil {
			opts.Transport = inj.RoundTripper("actor→replay", nil)
		}
		f := oneGroupFabric(t, hs.URL, opts)
		sink, err := NewShardedSink(f, "actor-0", spec)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			obs, act, rew, nxt, done := step(rng)
			if err := sink.Add(obs, act, rew, nxt, done); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		remote, err := NewShardedSource(f, spec, plan)
		if err != nil {
			t.Fatal(err)
		}
		const batch = 32
		dst := []*replay.AgentBatch{replay.NewAgentBatch(batch, 3, 2), replay.NewAgentBatch(batch, 4, 2)}
		idx, err := remote.SampleBatch(batch, 4242, dst)
		if err != nil {
			t.Fatal(err)
		}
		idxCopy := append([]int(nil), idx...)
		var obsFlat, rewFlat []float64
		for a := 0; a < 2; a++ {
			obsFlat = append(obsFlat, dst[a].Obs.Data...)
			rewFlat = append(rewFlat, dst[a].Rew.Data...)
		}
		return idxCopy, obsFlat, rewFlat
	}

	cleanIdx, cleanObs, cleanRew := run(nil)

	inj := faultnet.New(77)
	if err := inj.SetRule("actor→replay", faultnet.Rule{Drop: 0.15, Error: 0.1, Delay: 500 * time.Microsecond, DelayProb: 0.3}); err != nil {
		t.Fatal(err)
	}
	faultIdx, faultObs, faultRew := run(inj)

	if c := inj.Counts("actor→replay"); c.Dropped == 0 && c.Errored == 0 {
		t.Fatalf("fault injection never fired (counts %+v); the run proved nothing", c)
	}
	for i := range cleanIdx {
		if cleanIdx[i] != faultIdx[i] {
			t.Fatalf("sample index %d diverged under faults: %d vs %d", i, cleanIdx[i], faultIdx[i])
		}
	}
	for i := range cleanObs {
		if cleanObs[i] != faultObs[i] {
			t.Fatalf("obs bit-divergence at %d under faults", i)
		}
	}
	for i := range cleanRew {
		if cleanRew[i] != faultRew[i] {
			t.Fatalf("rew bit-divergence at %d under faults", i)
		}
	}
}
