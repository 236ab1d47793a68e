package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"marlperf/internal/expserve"
	"marlperf/internal/expstore"
	"marlperf/internal/faultnet"
	"marlperf/internal/mpe"
	"marlperf/internal/replay"
)

func expConfig(sampler SamplerKind) Config {
	cfg := DefaultConfig(MADDPG)
	cfg.BatchSize = 32
	cfg.BufferCapacity = 512
	cfg.UpdateEvery = 20
	cfg.HiddenSize = 16
	cfg.MaxEpisodeLen = 25
	cfg.Sampler = sampler
	cfg.Neighbors = 8
	cfg.Refs = 4
	cfg.UpdateWorkers = 1
	cfg.Seed = 21
	return cfg
}

func expSpec(cfg Config, env mpe.Env) replay.Spec {
	return replay.Spec{
		NumAgents: env.NumAgents(),
		ObsDims:   env.ObsDims(),
		ActDim:    env.NumActions(),
		Capacity:  cfg.BufferCapacity,
	}
}

// runServiceTrainer trains episodes episodes against the given experience
// source/sink and returns the final checkpoint bytes (weights, optimizer
// state, RNG streams — the full bit-identity witness).
func runServiceTrainer(t *testing.T, cfg Config, src replay.TransitionSource, sink replay.TransitionSink, episodes int) ([]byte, *Trainer) {
	t.Helper()
	tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetExperienceService(src, sink); err != nil {
		t.Fatal(err)
	}
	for completed := 0; completed < episodes; {
		done, err := tr.StepE()
		if err != nil {
			t.Fatalf("StepE: %v", err)
		}
		if done {
			completed++
		}
	}
	return checkpointBytes(t, tr), tr
}

// The determinism contract must hold across the parallel update engine too:
// worker count is a pure throughput knob in service mode exactly as it is
// locally.
func TestRemoteExperienceDeterministicAcrossWorkers(t *testing.T) {
	cfg := expConfig(SamplerLocality)
	env := mpe.NewCooperativeNavigation(2)
	spec := expSpec(cfg, env)
	plan, err := cfg.SamplePlan()
	if err != nil {
		t.Fatal(err)
	}
	var ckpts [][]byte
	for _, workers := range []int{1, 3} {
		c := cfg
		c.UpdateWorkers = workers
		src, err := expstore.NewSource(expstore.NewRing(spec), plan)
		if err != nil {
			t.Fatal(err)
		}
		ckpt, tr := runServiceTrainer(t, c, src, src, 3)
		tr.Close()
		ckpts = append(ckpts, ckpt)
	}
	if !bytes.Equal(ckpts[0], ckpts[1]) {
		t.Fatal("experience-service training differs across UpdateWorkers")
	}
}

func TestSetExperienceServiceRejectsStatefulSamplers(t *testing.T) {
	cfg := expConfig(SamplerPER)
	env := mpe.NewCooperativeNavigation(2)
	tr, err := NewTrainer(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	spec := expSpec(cfg, env)
	src, err := expstore.NewSource(expstore.NewRing(spec), replay.SamplePlan{Strategy: replay.PlanUniform})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetExperienceService(src, src); err == nil {
		t.Fatal("PER sampler accepted with an experience source")
	}
}

// A trainer drawing from an experience source keeps no local copy of what
// it collects: every row goes to the sink, and neither the local buffer
// nor the key-value table grows, across updates and episodes.
func TestSetExperienceServiceKeepsNoLocalCopy(t *testing.T) {
	cfg := expConfig(SamplerUniform)
	cfg.UseKVLayout = true
	env := mpe.NewCooperativeNavigation(2)
	src, err := expstore.NewSource(expstore.NewRing(expSpec(cfg, env)), replay.SamplePlan{Strategy: replay.PlanUniform})
	if err != nil {
		t.Fatal(err)
	}
	_, tr := runServiceTrainer(t, cfg, src, src, 6)
	defer tr.Close()
	if tr.UpdateCount() == 0 {
		t.Fatal("no update ran")
	}
	if n, err := src.Len(); err != nil || n != 6*cfg.MaxEpisodeLen {
		t.Fatalf("sink holds %d rows (%v), want %d", n, err, 6*cfg.MaxEpisodeLen)
	}
	if n := tr.Buffer().Len(); n != 0 {
		t.Errorf("local buffer holds %d rows beside the source", n)
	}
	if n := tr.KVBuffer().Len(); n != 0 {
		t.Errorf("key-value table holds %d rows beside the source", n)
	}
}

func TestSetExperienceServiceRejectsMidRun(t *testing.T) {
	cfg := expConfig(SamplerUniform)
	tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Warmup(3)
	spec := expSpec(cfg, mpe.NewCooperativeNavigation(2))
	src, err := expstore.NewSource(expstore.NewRing(spec), replay.SamplePlan{Strategy: replay.PlanUniform})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetExperienceService(src, src); err == nil {
		t.Fatal("rewiring after training started was accepted")
	}
}

func TestConfigSamplePlanMapping(t *testing.T) {
	for _, c := range []struct {
		sampler SamplerKind
		ok      bool
	}{
		{SamplerUniform, true},
		{SamplerLocality, true},
		{SamplerPER, false},
		{SamplerIPLocality, false},
		{SamplerRankPER, false},
	} {
		cfg := expConfig(c.sampler)
		plan, err := cfg.SamplePlan()
		if (err == nil) != c.ok {
			t.Errorf("SamplePlan(%v) = %v, %v; want ok=%v", c.sampler, plan, err, c.ok)
		}
		if err == nil {
			if verr := plan.Validate(); verr != nil {
				t.Errorf("SamplePlan(%v) produced invalid plan: %v", c.sampler, verr)
			}
		}
	}
}

// StepE surfaces a broken service as an error, not a panic or a silent
// stall.
func TestStepESurfacesServiceFailure(t *testing.T) {
	cfg := expConfig(SamplerUniform)
	tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.SetExperienceService(brokenSource{}, nil); err != nil {
		t.Fatal(err)
	}
	var sawErr error
	for i := 0; i < cfg.UpdateEvery+1 && sawErr == nil; i++ {
		_, sawErr = tr.StepE()
	}
	if sawErr == nil {
		t.Fatal("broken experience service never surfaced an error")
	}
}

type brokenSource struct{}

func (brokenSource) Len() (int, error) { return 0, fmt.Errorf("service unreachable") }
func (brokenSource) SampleBatch(int, int64, []*replay.AgentBatch) ([]int, error) {
	return nil, fmt.Errorf("service unreachable")
}

// The chaos-mode acceptance criterion, proven in-process: a full training
// run whose every HTTP exchange with the experience service rides through
// injected drops, 5xx answers and delays must produce a checkpoint
// bit-identical to the fault-free run. Faults that only delay (never lose)
// committed data cost wall-clock, never bits.
func TestRemoteTrainingBitIdenticalUnderInjectedFaults(t *testing.T) {
	cfg := expConfig(SamplerLocality)
	env := mpe.NewCooperativeNavigation(2)
	spec := expSpec(cfg, env)
	plan, err := cfg.SamplePlan()
	if err != nil {
		t.Fatal(err)
	}

	run := func(inj *faultnet.Injector) []byte {
		t.Helper()
		opts := expserve.ClientOptions{
			Timeout:    10 * time.Second,
			Attempts:   12,
			BaseDelay:  time.Millisecond,
			MaxDelay:   5 * time.Millisecond,
			JitterSeed: 1,
			// Never fail fast: the run must ride every injected fault out.
			BreakerThreshold: -1,
		}
		if inj != nil {
			opts.Transport = inj.RoundTripper("actor→replay", nil)
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
		ckpt, tr := runServiceTrainer(t, cfg, src, sink, 3)
		tr.Close()
		return ckpt
	}

	clean := run(nil)

	inj := faultnet.New(99)
	if err := inj.SetRule("actor→replay", faultnet.Rule{Drop: 0.08, Error: 0.08, Delay: 200 * time.Microsecond, DelayProb: 0.25}); err != nil {
		t.Fatal(err)
	}
	faulted := run(inj)

	if c := inj.Counts("actor→replay"); c.Dropped == 0 && c.Errored == 0 {
		t.Fatalf("fault injection never fired (%+v); the run proved nothing", c)
	}
	if !bytes.Equal(clean, faulted) {
		t.Fatalf("training through a faulty transport diverged: checkpoints differ (%d vs %d bytes)", len(clean), len(faulted))
	}
}
