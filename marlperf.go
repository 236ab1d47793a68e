// Package marlperf is a Go reproduction of "Characterizing and Optimizing
// the End-to-End Performance of Multi-Agent Reinforcement Learning Systems"
// (IISWC 2024). It provides:
//
//   - MADDPG and MATD3 trainers under the CTDE model, built on a pure-Go
//     neural-network substrate;
//   - the multi-agent particle environments the paper evaluates on
//     (Predator-Prey and Cooperative Navigation);
//   - the paper's mini-batch sampling optimizations — cache-locality-aware
//     neighbor sampling, information-prioritized locality-aware sampling
//     with Lemma-1 importance weights, and the key-value transition
//     data-layout reorganization;
//   - phase-level profiling and a trace-driven cache/TLB simulator that
//     stand in for wall-clock breakdowns and hardware counters;
//   - an experiment harness that regenerates every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	env := marlperf.NewCooperativeNavigation(3)
//	cfg := marlperf.DefaultConfig(marlperf.MADDPG)
//	cfg.Sampler = marlperf.SamplerLocality // cache-aware sampling
//	cfg.Neighbors, cfg.Refs = 16, 64
//	tr, err := marlperf.NewTrainer(cfg, env)
//	...
//	tr.RunEpisodes(1000, func(ep int, reward float64) { ... })
//	fmt.Print(tr.Profile().Report())
package marlperf

import (
	"fmt"

	"marlperf/internal/core"
	"marlperf/internal/experiments"
	"marlperf/internal/mpe"
	"marlperf/internal/replay"
	"marlperf/internal/simcache"
)

// Core training types, re-exported from internal/core.
type (
	// Config holds every hyperparameter of a training run.
	Config = core.Config
	// Algorithm selects the MARL workload (MADDPG or MATD3).
	Algorithm = core.Algorithm
	// SamplerKind selects the mini-batch sampling strategy.
	SamplerKind = core.SamplerKind
	// Trainer runs the CTDE training loop with phase instrumentation.
	Trainer = core.Trainer
	// UpdateEvent is the per-update run-event record emitted to listeners
	// registered with Trainer.SetUpdateListener (the -runlog JSONL schema).
	UpdateEvent = core.UpdateEvent
)

// Environment types, re-exported from internal/mpe.
type (
	// Env is the multi-agent environment interface trainers consume.
	Env = mpe.Env
)

// Replay types, re-exported for direct use of the sampling strategies.
type (
	// KVBuffer is the reorganized key-value transition layout.
	KVBuffer = replay.KVBuffer
	// Sampler produces mini-batch index sets.
	Sampler = replay.Sampler
	// Platform is a cache-hierarchy/latency model for modeled experiments.
	Platform = simcache.Platform
)

// Algorithms.
const (
	// MADDPG is multi-agent DDPG (Lowe et al., 2017), the paper's primary
	// workload.
	MADDPG = core.MADDPG
	// MATD3 is multi-agent TD3 with twin delayed critics.
	MATD3 = core.MATD3
)

// Sampling strategies.
const (
	// SamplerUniform is the baseline i.i.d. random mini-batch sampling.
	SamplerUniform = core.SamplerUniform
	// SamplerLocality is the paper's cache-locality-aware neighbor
	// sampling (Algorithm 1).
	SamplerLocality = core.SamplerLocality
	// SamplerPER is proportional prioritized experience replay.
	SamplerPER = core.SamplerPER
	// SamplerIPLocality is information-prioritized locality-aware sampling
	// with Lemma-1 importance weights.
	SamplerIPLocality = core.SamplerIPLocality
	// SamplerRankPER is rank-based prioritized replay (additional
	// prioritization baseline).
	SamplerRankPER = core.SamplerRankPER
)

// DefaultConfig returns the paper's hyperparameters (§V) for the workload:
// batch 1024, 1M replay, Adam lr 0.01, γ=0.95, τ=0.01, 2x64 ReLU MLPs,
// 25-step episodes, updates every 100 samples.
func DefaultConfig(algo Algorithm) Config { return core.DefaultConfig(algo) }

// NewTrainer builds a trainer for cfg over env.
func NewTrainer(cfg Config, env Env) (*Trainer, error) { return core.NewTrainer(cfg, env) }

// NewPredatorPrey builds the competitive tag scenario with n trainable
// predators and paper-scaled prey/landmark counts.
func NewPredatorPrey(nPredators int) Env { return mpe.NewPredatorPrey(nPredators) }

// NewCooperativeNavigation builds the cooperative spread scenario with n
// agents covering n landmarks.
func NewCooperativeNavigation(n int) Env { return mpe.NewCooperativeNavigation(n) }

// NewPhysicalDeception builds the mixed cooperative-competitive deception
// scenario: nGood cooperating agents, one adversary, nGood landmarks with a
// secret target.
func NewPhysicalDeception(nGood int) Env { return mpe.NewPhysicalDeception(nGood) }

// ExperimentIDs lists the reproducible paper experiments (table1, fig2 …
// fig14, plus ablations).
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentDescription returns the one-line description of an experiment.
func ExperimentDescription(id string) (string, error) {
	r := experiments.Get(id)
	if r == nil {
		return "", fmt.Errorf("marlperf: unknown experiment %q (known: %v)", id, experiments.IDs())
	}
	return r.Description, nil
}

// RunExperiment executes one paper experiment at scale "small" ("" too) or
// "full" and returns its formatted tables.
func RunExperiment(id, scale string) (string, error) {
	r := experiments.Get(id)
	if r == nil {
		return "", fmt.Errorf("marlperf: unknown experiment %q (known: %v)", id, experiments.IDs())
	}
	if scale == "" {
		scale = "small"
	}
	s, err := experiments.ScaleByName(scale)
	if err != nil {
		return "", fmt.Errorf("marlperf: %w", err)
	}
	return r.Run(s).String(), nil
}
