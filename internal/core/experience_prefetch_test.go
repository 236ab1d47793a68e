package core

// Acceptance tests for the prefetch overlap path every remote learner
// runs: prefetching is a pure timing optimization. A remote-fed training
// run with prefetching on must produce checkpoints bit-identical to one
// with it off, for any update worker count, and even when every HTTP
// exchange rides through injected network faults that delay or drop (but
// never lose) committed data.

import (
	"bytes"
	"testing"
	"time"

	"marlperf/internal/expserve"
	"marlperf/internal/faultnet"
	"marlperf/internal/mpe"
	"marlperf/internal/telemetry"
)

// runRemoteTrainer spins up a fresh in-memory experience server behind a
// one-group fabric and trains episodes against it, optionally through a
// fault injector and optionally with the prefetch source wrapped in.
// Returns the checkpoint witness and the prefetch registry (nil when
// prefetch is off).
func runRemoteTrainer(t *testing.T, cfg Config, prefetch bool, inj *faultnet.Injector, episodes int) ([]byte, *telemetry.Registry) {
	t.Helper()
	env := mpe.NewCooperativeNavigation(2)
	spec := expSpec(cfg, env)
	plan, err := cfg.SamplePlan()
	if err != nil {
		t.Fatal(err)
	}
	opts := expserve.ClientOptions{
		Timeout:          10 * time.Second,
		Attempts:         12,
		BaseDelay:        time.Millisecond,
		MaxDelay:         5 * time.Millisecond,
		JitterSeed:       1,
		BreakerThreshold: -1,
		Conns:            4,
	}
	if inj != nil {
		opts.Transport = inj.RoundTripper("learner→replay", nil)
	}
	fabric := newShardFabric(t, spec, shardFabric{client: opts})
	src, err := expserve.NewShardedSource(fabric, spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := expserve.NewShardedSink(fabric, "actor-0", spec)
	if err != nil {
		t.Fatal(err)
	}
	var reg *telemetry.Registry
	if prefetch {
		reg = telemetry.NewRegistry()
		pf := expserve.NewPrefetchSource(src, 4, reg)
		if inj != nil {
			// Under injected delays, force the timeout-fallback path to
			// fire too: late prefetches must degrade to sync fetches, not
			// stalls or wrong bytes.
			pf.SyncAfter = time.Millisecond
		}
		ckpt, tr := runServiceTrainer(t, cfg, pf, sink, episodes)
		tr.Close()
		return ckpt, reg
	}
	ckpt, tr := runServiceTrainer(t, cfg, src, sink, episodes)
	tr.Close()
	return ckpt, nil
}

// Prefetch on vs off, serial and parallel update engines: four runs, one
// checkpoint.
func TestRemoteExperiencePrefetchBitIdentical(t *testing.T) {
	base := expConfig(SamplerLocality)
	var ckpts [][]byte
	var regs []*telemetry.Registry
	for _, workers := range []int{1, 3} {
		for _, prefetch := range []bool{false, true} {
			cfg := base
			cfg.UpdateWorkers = workers
			ckpt, reg := runRemoteTrainer(t, cfg, prefetch, nil, 3)
			ckpts = append(ckpts, ckpt)
			regs = append(regs, reg)
		}
	}
	for i := 1; i < len(ckpts); i++ {
		if !bytes.Equal(ckpts[0], ckpts[i]) {
			t.Fatalf("checkpoint %d diverged from baseline: prefetch must be bit-invisible", i)
		}
	}
	// The prefetch runs must actually have prefetched (the test would be
	// vacuous if every sample quietly missed).
	for i, reg := range regs {
		if reg == nil {
			continue
		}
		if hits := reg.Counter("marl_exp_prefetch_hit_total").Value(); hits == 0 {
			t.Fatalf("run %d: prefetch never hit; overlap was never exercised", i)
		}
	}
}

// The same contract through a lossy, slow wire: delayed prefetches fall
// back to synchronous fetches, and the checkpoint still matches the
// fault-free prefetch-off baseline bit for bit — no duplicate or skipped
// seeds anywhere in the pipeline.
func TestRemoteExperiencePrefetchBitIdenticalUnderFaults(t *testing.T) {
	cfg := expConfig(SamplerLocality)
	clean, _ := runRemoteTrainer(t, cfg, false, nil, 3)

	inj := faultnet.New(99)
	if err := inj.SetRule("learner→replay", faultnet.Rule{Drop: 0.08, Error: 0.08, Delay: 500 * time.Microsecond, DelayProb: 0.4}); err != nil {
		t.Fatal(err)
	}
	faulted, reg := runRemoteTrainer(t, cfg, true, inj, 3)

	if c := inj.Counts("learner→replay"); c.Dropped == 0 && c.Errored == 0 {
		t.Fatalf("fault injection never fired (%+v); the run proved nothing", c)
	}
	if !bytes.Equal(clean, faulted) {
		t.Fatalf("prefetch training through a faulty transport diverged (%d vs %d bytes)", len(clean), len(faulted))
	}
	hits := reg.Counter("marl_exp_prefetch_hit_total").Value()
	misses := reg.Counter("marl_exp_prefetch_miss_total").Value()
	if hits+misses == 0 {
		t.Fatal("no samples observed through the prefetch source")
	}
}
