package core

import (
	"math"
	"testing"

	"marlperf/internal/mpe"
	"marlperf/internal/profiler"
	"marlperf/internal/replay"
)

// smallConfig returns a fast configuration for tests: tiny batch, buffer
// and update interval so updates happen within a few episodes.
func smallConfig(algo Algorithm) Config {
	c := DefaultConfig(algo)
	c.BatchSize = 32
	c.BufferCapacity = 512
	c.UpdateEvery = 20
	c.HiddenSize = 16
	c.Seed = 7
	return c
}

func TestNewTrainerAllSamplers(t *testing.T) {
	for _, s := range []SamplerKind{SamplerUniform, SamplerLocality, SamplerPER, SamplerIPLocality} {
		cfg := smallConfig(MADDPG)
		cfg.Sampler = s
		env := mpe.NewCooperativeNavigation(2)
		tr, err := NewTrainer(cfg, env)
		if err != nil {
			t.Fatalf("sampler %v: %v", s, err)
		}
		if tr.sampler == nil {
			t.Fatalf("sampler %v: nil sampler", s)
		}
	}
}

func TestNewTrainerRejectsInvalidConfig(t *testing.T) {
	cfg := smallConfig(MADDPG)
	cfg.BatchSize = 0
	if _, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestJointDimLayout(t *testing.T) {
	env := mpe.NewCooperativeNavigation(3) // obs 18 each, 5 actions
	tr, err := NewTrainer(smallConfig(MADDPG), env)
	if err != nil {
		t.Fatal(err)
	}
	want := 3*18 + 3*5
	if tr.JointDim() != want {
		t.Fatalf("JointDim = %d, want %d", tr.JointDim(), want)
	}
}

func TestStepAccumulatesBufferAndEpisodes(t *testing.T) {
	cfg := smallConfig(MADDPG)
	env := mpe.NewCooperativeNavigation(2)
	tr, err := NewTrainer(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	episodes := 0
	for i := 0; i < 60; i++ { // MaxEpisodeLen 25 → at least 2 episodes
		if tr.Step() {
			episodes++
		}
	}
	if tr.TotalSteps() != 60 {
		t.Fatalf("TotalSteps = %d, want 60", tr.TotalSteps())
	}
	if tr.Buffer().Len() != 60 {
		t.Fatalf("buffer Len = %d, want 60", tr.Buffer().Len())
	}
	if episodes != 2 || tr.EpisodeCount() != 2 {
		t.Fatalf("episodes = %d/%d, want 2", episodes, tr.EpisodeCount())
	}
	if tr.UpdateCount() == 0 {
		t.Fatal("no updates ran in 60 steps with UpdateEvery=20 and warmup=32")
	}
}

func TestWarmupDoesNotUpdateOrProfile(t *testing.T) {
	cfg := smallConfig(MADDPG)
	tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	tr.Warmup(50)
	if tr.UpdateCount() != 0 {
		t.Fatal("warmup must not run updates")
	}
	if tr.Buffer().Len() != 50 {
		t.Fatalf("warmup buffer Len = %d, want 50", tr.Buffer().Len())
	}
	if tr.Profile().Total() != 0 {
		t.Fatal("warmup must not record phase timings")
	}
}

func TestUpdateAllTrainersRecordsPhases(t *testing.T) {
	cfg := smallConfig(MADDPG)
	tr, err := NewTrainer(cfg, mpe.NewPredatorPrey(3))
	if err != nil {
		t.Fatal(err)
	}
	tr.Warmup(40)
	tr.UpdateAllTrainers()
	p := tr.Profile()
	for _, ph := range []profiler.Phase{profiler.PhaseSampling, profiler.PhaseTargetQ, profiler.PhaseQPLoss} {
		if p.Duration(ph) == 0 {
			t.Fatalf("phase %v not recorded", ph)
		}
	}
	// 3 agent trainers → 3 sampling phases.
	if p.Count(profiler.PhaseSampling) != 3 {
		t.Fatalf("sampling count = %d, want 3", p.Count(profiler.PhaseSampling))
	}
}

func TestUpdateOnEmptyBufferPanics(t *testing.T) {
	tr, err := NewTrainer(smallConfig(MADDPG), mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("update with empty buffer did not panic")
		}
	}()
	tr.UpdateAllTrainers()
}

func TestTrainingStaysFinite(t *testing.T) {
	for _, algo := range []Algorithm{MADDPG, MATD3} {
		cfg := smallConfig(algo)
		tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
		if err != nil {
			t.Fatal(err)
		}
		tr.RunEpisodes(4, func(ep int, reward float64) {
			if math.IsNaN(reward) || math.IsInf(reward, 0) {
				t.Fatalf("%v: episode %d reward %v", algo, ep, reward)
			}
		})
		// Spot-check network parameters for NaN.
		for i, ag := range tr.agents {
			for _, p := range ag.actor.Params() {
				for _, v := range p.Data {
					if math.IsNaN(v) {
						t.Fatalf("%v: NaN in agent %d actor", algo, i)
					}
				}
			}
		}
	}
}

func TestParametersChangeAfterUpdate(t *testing.T) {
	cfg := smallConfig(MADDPG)
	tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	tr.Warmup(40)
	before := tr.agents[0].actor.Params()[0].Clone()
	beforeCritic := tr.agents[0].critic1.Params()[0].Clone()
	tr.UpdateAllTrainers()
	changedActor, changedCritic := false, false
	for i, v := range tr.agents[0].actor.Params()[0].Data {
		if v != before.Data[i] {
			changedActor = true
			break
		}
	}
	for i, v := range tr.agents[0].critic1.Params()[0].Data {
		if v != beforeCritic.Data[i] {
			changedCritic = true
			break
		}
	}
	if !changedActor || !changedCritic {
		t.Fatalf("update left parameters untouched: actor=%v critic=%v", changedActor, changedCritic)
	}
}

func TestTargetNetworksLagBehind(t *testing.T) {
	cfg := smallConfig(MADDPG)
	tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	tr.Warmup(40)
	tr.UpdateAllTrainers()
	ag := tr.agents[0]
	// After one τ=0.01 update, target must differ from both its initial
	// copy and the online network (it moved, but only 1% of the way).
	var diffOnline float64
	for i, v := range ag.targetCritic1.Params()[0].Data {
		diffOnline += math.Abs(v - ag.critic1.Params()[0].Data[i])
	}
	if diffOnline == 0 {
		t.Fatal("target should lag behind the online critic, not equal it")
	}
}

func TestMATD3HasTwinCriticsAndDelaysActor(t *testing.T) {
	cfg := smallConfig(MATD3)
	cfg.PolicyDelay = 2
	tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	if tr.agents[0].critic2 == nil {
		t.Fatal("MATD3 agent missing twin critic")
	}
	tr.Warmup(40)
	actorBefore := tr.agents[0].actor.Params()[0].Clone()
	tr.UpdateAllTrainers() // updateCount=1: 1%2 != 0 → actor delayed
	for i, v := range tr.agents[0].actor.Params()[0].Data {
		if v != actorBefore.Data[i] {
			t.Fatal("actor updated on a delayed step")
		}
	}
	tr.UpdateAllTrainers() // updateCount=2 → actor updates
	changed := false
	for i, v := range tr.agents[0].actor.Params()[0].Data {
		if v != actorBefore.Data[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("actor never updated after policy-delay steps")
	}
}

func TestMADDPGHasNoTwinCritic(t *testing.T) {
	tr, err := NewTrainer(smallConfig(MADDPG), mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	if tr.agents[0].critic2 != nil {
		t.Fatal("MADDPG agent should not have a twin critic")
	}
}

func TestPERPrioritiesEvolveDuringTraining(t *testing.T) {
	cfg := smallConfig(MADDPG)
	cfg.Sampler = SamplerPER
	tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	tr.Warmup(40)
	tr.UpdateAllTrainers()
	// After one update the priority distribution should no longer be
	// uniform (fresh max priority everywhere).
	sampler := tr.sampler.(interface{ NormalizedPriority(int) float64 })
	uniform := true
	first := sampler.NormalizedPriority(0)
	for i := 1; i < tr.Buffer().Len(); i++ {
		if math.Abs(sampler.NormalizedPriority(i)-first) > 1e-9 {
			uniform = false
			break
		}
	}
	if uniform {
		t.Fatal("PER priorities did not differentiate after an update")
	}
}

func TestLocalityTrainerUsesContiguousGathers(t *testing.T) {
	cfg := smallConfig(MADDPG)
	cfg.Sampler = SamplerLocality
	cfg.Neighbors = 8
	cfg.Refs = 4
	tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	tr.Warmup(100)
	var sample replay.Sample
	tr.sampler.SampleInto(&sample, 32, tr.rng)
	if len(sample.Indices) != 32 {
		t.Fatalf("locality trainer drew %d indices, want 32", len(sample.Indices))
	}
	// Four runs of eight consecutive slots (mod the buffer's length).
	for i := 1; i < len(sample.Indices); i++ {
		if i%8 != 0 && sample.Indices[i] != (sample.Indices[i-1]+1)%tr.Buffer().Len() {
			t.Fatalf("run breaks at index %d: slot %d after %d", i, sample.Indices[i], sample.Indices[i-1])
		}
	}
}
