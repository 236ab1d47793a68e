package core

import (
	"math"
	"runtime"
	"testing"

	"marlperf/internal/mpe"
	"marlperf/internal/profiler"
)

// TestParallelUpdatePreservesProfileCounts ensures the per-worker profiler
// shards merge into the same phase call counts the serial loop records.
func TestParallelUpdatePreservesProfileCounts(t *testing.T) {
	counts := func(workers int) map[string]uint64 {
		cfg := smallConfig(MADDPG)
		cfg.UpdateWorkers = workers
		tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(3))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		tr.RunEpisodes(8, nil)
		out := map[string]uint64{}
		for _, p := range profiler.Phases() {
			out[p.String()] = tr.Profile().Count(p)
		}
		return out
	}
	serial, parallel := counts(1), counts(4)
	for name, n := range serial {
		if parallel[name] != n {
			t.Fatalf("phase %s count: serial %d, parallel %d", name, n, parallel[name])
		}
	}
}

// TestReseedRNGReseedsAgentStreams verifies that two trainers reseeded to
// the same value continue identically — the agent streams must follow the
// main RNG, or a watchdog rollback would resume with stale streams.
func TestReseedRNGReseedsAgentStreams(t *testing.T) {
	build := func(seed int64) *Trainer {
		cfg := smallConfig(MADDPG)
		cfg.Seed = seed
		tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := build(7)
	b := build(99)
	defer a.Close()
	defer b.Close()
	a.ReseedRNG(1234)
	b.ReseedRNG(1234)
	for i := range a.agentRNGs {
		if got, want := a.agentRNGs[i].Int63(), b.agentRNGs[i].Int63(); got != want {
			t.Fatalf("agent %d stream diverged after identical reseed: %d vs %d", i, got, want)
		}
	}
}

// TestUpdateWorkersValidation covers the config surface of the engine.
func TestUpdateWorkersValidation(t *testing.T) {
	cfg := smallConfig(MADDPG)
	cfg.UpdateWorkers = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative UpdateWorkers accepted")
	}
	cfg.UpdateWorkers = 0
	if got := cfg.ResolvedUpdateWorkers(); got < 1 {
		t.Fatalf("ResolvedUpdateWorkers = %d with auto setting, want ≥1", got)
	}
	cfg.UpdateWorkers = 3
	if got := cfg.ResolvedUpdateWorkers(); got != 3 {
		t.Fatalf("ResolvedUpdateWorkers = %d, want 3", got)
	}
}

// TestSerialUpdateDoesNotAllocate: once its scratch is warm, a whole
// update-all-trainers stage at one worker — sampling, gather, every forward
// and backward including the transposed weights of grad·Wᵀ, the optimizer
// steps — runs without touching the heap, with a second core to spare:
// UpdateWorkers = 1 means the calling goroutine and nothing else.
func TestSerialUpdateDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig(MADDPG)
	cfg.BatchSize = 256
	cfg.BufferCapacity = 8192
	cfg.WarmupSize = 256
	cfg.UpdateWorkers = 1
	tr, err := NewTrainer(cfg, mpe.NewPredatorPrey(3))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Warmup(512)

	// Not testing.AllocsPerRun: it runs its function at GOMAXPROCS = 1.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tr.UpdateAllTrainers()
	var before, after runtime.MemStats
	fewest := ^uint64(0)
	for trial := 0; trial < 5; trial++ { // a background goroutine may allocate during one trial, not all
		runtime.ReadMemStats(&before)
		tr.UpdateAllTrainers()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	if fewest != 0 {
		t.Fatalf("a warmed UpdateWorkers=1 UpdateAllTrainers allocates %d times at GOMAXPROCS=2, want 0", fewest)
	}
}

// TestFirstUpdateAllocationScalesWithJointInputs: the bytes the first
// update-all-trainers stage allocates at one worker, where every lazy buffer
// of the update is made, grow with the agent count only by what the worker
// holds per agent — the two joint inputs and each agent's Rew and Done
// columns. Batch-sized scratch is per network shape, not per network, so the
// remainder stays flat; it may grow by the critic workspace's weight-shaped
// backward scratch (xᵀ·grad and the transposed weights), which is as wide as
// the joint input. Per-network scratch would add megabytes per agent.
func TestFirstUpdateAllocationScalesWithJointInputs(t *testing.T) {
	const batch = 1024
	type row struct {
		agents, jointDim int
		alloc, joint     int64
	}
	var rows []row
	for _, n := range []int{3, 6, 12} {
		r := row{agents: n, alloc: math.MaxInt64}
		for trial := 0; trial < 2; trial++ { // a background goroutine may allocate during one trial, not both
			cfg := DefaultConfig(MADDPG)
			cfg.BatchSize, cfg.BufferCapacity, cfg.WarmupSize = batch, batch, batch
			cfg.UpdateWorkers = 1
			tr, err := NewTrainer(cfg, mpe.NewPredatorPrey(n))
			if err != nil {
				t.Fatal(err)
			}
			tr.Warmup(batch)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tr.UpdateAllTrainers()
			runtime.ReadMemStats(&after)
			tr.Close()
			r.alloc = min(r.alloc, int64(after.TotalAlloc-before.TotalAlloc))
			r.jointDim = tr.JointDim()
		}
		r.joint = 8 * batch * int64(2*r.jointDim+2*n)
		rows = append(rows, r)
	}
	const mb = 1e6
	t.Logf("first update at batch %d, one worker (MB): agents, joint width, allocated, joint inputs with Rew/Done, remainder", batch)
	for _, r := range rows {
		t.Logf("%2d %4d %6.1f %6.1f %6.1f", r.agents, r.jointDim, float64(r.alloc)/mb, float64(r.joint)/mb, float64(r.alloc-r.joint)/mb)
	}
	hidden := int64(DefaultConfig(MADDPG).HiddenSize)
	base := rows[0]
	for _, r := range rows[1:] {
		grown := (r.alloc - r.joint) - (base.alloc - base.joint)
		allowed := 2*8*hidden*int64(r.jointDim-base.jointDim) + 1<<20
		if grown > allowed {
			t.Errorf("at %d agents the first update allocates %.1f MB beyond the joint inputs, %.1f MB more than at %d agents (allowed %.1f MB): scratch grows per network",
				r.agents, float64(r.alloc-r.joint)/mb, float64(grown)/mb, base.agents, float64(allowed)/mb)
		}
	}
}

// Close right after a trainer's first parallel update used to race with
// the pool goroutines not yet running: each read the workCh field as it
// started, while Close wrote it. Run under -race.
func TestCloseRightAfterFirstParallelUpdate(t *testing.T) {
	for i := 0; i < 30; i++ {
		cfg := smallConfig(MADDPG)
		cfg.UpdateWorkers = 16
		tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
		if err != nil {
			t.Fatal(err)
		}
		tr.Warmup(cfg.BatchSize)
		tr.UpdateAllTrainers()
		tr.Close()
	}
}
