package marlperf

import (
	"strings"
	"testing"
)

func TestPublicQuickstartPath(t *testing.T) {
	env := NewCooperativeNavigation(2)
	cfg := DefaultConfig(MADDPG)
	cfg.BatchSize = 32
	cfg.BufferCapacity = 256
	cfg.UpdateEvery = 20
	cfg.HiddenSize = 8
	tr, err := NewTrainer(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	episodes := 0
	tr.RunEpisodes(2, func(ep int, reward float64) { episodes++ })
	if episodes != 2 {
		t.Fatalf("callback fired %d times, want 2", episodes)
	}
	if !strings.Contains(tr.Profile().Report(), "mini-batch-sampling") {
		t.Fatal("profile report missing sampling phase")
	}
}

func TestPublicSamplerConfiguration(t *testing.T) {
	for _, s := range []SamplerKind{SamplerUniform, SamplerLocality, SamplerPER, SamplerIPLocality, SamplerRankPER} {
		cfg := DefaultConfig(MATD3)
		cfg.Sampler = s
		cfg.BatchSize = 16
		cfg.BufferCapacity = 64
		cfg.HiddenSize = 8
		if _, err := NewTrainer(cfg, NewPredatorPrey(2)); err != nil {
			t.Fatalf("sampler %v: %v", s, err)
		}
	}
}

func TestExperimentRegistryAccessors(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 12 {
		t.Fatalf("expected at least 12 experiments, got %v", ids)
	}
	desc, err := ExperimentDescription("fig8")
	if err != nil || desc == "" {
		t.Fatalf("fig8 description: %q, %v", desc, err)
	}
	if _, err := ExperimentDescription("bogus"); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestRunExperimentValidatesInputs(t *testing.T) {
	if _, err := RunExperiment("bogus", "small"); err == nil {
		t.Fatal("unknown experiment should error")
	}
	if _, err := RunExperiment("fig4", "huge"); err == nil {
		t.Fatal("unknown scale should error")
	}
}

func TestRunExperimentFig4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4 small takes a few seconds")
	}
	out, err := RunExperiment("fig4", "small")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "dTLB") {
		t.Fatalf("unexpected fig4 output:\n%s", out)
	}
}
