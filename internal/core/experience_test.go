package core

import (
	"fmt"
	"testing"

	"marlperf/internal/expstore"
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
// it collects: every row goes to the sink, and its store (here the
// key-value table) does not grow, across updates and episodes.
func TestSetExperienceServiceKeepsNoLocalCopy(t *testing.T) {
	cfg := expConfig(SamplerUniform)
	cfg.UseKVLayout = true
	env := mpe.NewCooperativeNavigation(2)
	src, err := expstore.NewSource(expstore.NewRing(expSpec(cfg, env)), replay.SamplePlan{Strategy: replay.PlanUniform})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.SetExperienceService(src, src); err != nil {
		t.Fatal(err)
	}
	tr.RunEpisodes(6, nil)
	if tr.UpdateCount() == 0 {
		t.Fatal("no update ran")
	}
	if n, err := src.Len(); err != nil || n != 6*cfg.MaxEpisodeLen {
		t.Fatalf("sink holds %d rows (%v), want %d", n, err, 6*cfg.MaxEpisodeLen)
	}
	if n := tr.Store().Len(); n != 0 {
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
