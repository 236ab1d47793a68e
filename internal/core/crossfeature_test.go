package core

import (
	"bytes"
	"math"
	"testing"

	"marlperf/internal/mpe"
)

// Cross-feature integration tests: combinations of algorithm, sampler,
// layout and environment that users can legitimately compose.

func TestIPSamplerWithMATD3OnDeception(t *testing.T) {
	cfg := smallConfig(MATD3)
	cfg.Sampler = SamplerIPLocality
	cfg.ISBeta = 1
	tr, err := NewTrainer(cfg, mpe.NewPhysicalDeception(2))
	if err != nil {
		t.Fatal(err)
	}
	tr.RunEpisodes(3, func(ep int, reward float64) {
		if math.IsNaN(reward) {
			t.Fatalf("NaN reward at episode %d", ep)
		}
	})
	if tr.UpdateCount() == 0 {
		t.Fatal("no updates ran")
	}
}

func TestCheckpointAcrossKVLayoutConfigs(t *testing.T) {
	// A checkpoint from a baseline-layout trainer must restore into a
	// KV-layout trainer (layout is storage, not learned state).
	src := trainedTrainer(t, MADDPG)
	var buf bytes.Buffer
	if err := src.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(MADDPG)
	cfg.UseKVLayout = true
	dst, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	dst.Warmup(40)
	dst.UpdateAllTrainers() // must run cleanly on the KV path
}

func TestEvaluateOnAllScenarios(t *testing.T) {
	for _, env := range []mpe.Env{
		mpe.NewPredatorPrey(2),
		mpe.NewCooperativeNavigation(2),
		mpe.NewPhysicalDeception(2),
	} {
		tr, err := NewTrainer(smallConfig(MADDPG), env)
		if err != nil {
			t.Fatalf("%s: %v", env.Name(), err)
		}
		r := tr.Evaluate(2)
		if math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("%s: Evaluate returned %v", env.Name(), r)
		}
	}
}
