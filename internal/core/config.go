// Package core implements the paper's trainers: MADDPG and MATD3 under the
// Centralized-Training-Decentralized-Execution model, with pluggable
// mini-batch sampling strategies (uniform baseline, cache-locality-aware,
// PER, information-prioritized locality-aware) and the optional key-value
// transition-layout reorganization. Every training phase is timed through
// internal/profiler so the paper's breakdowns can be regenerated.
package core

import (
	"fmt"
	"runtime"
)

// Algorithm selects the MARL workload.
type Algorithm int

// The two workloads the paper characterizes.
const (
	MADDPG Algorithm = iota
	MATD3
)

// String returns the algorithm's report name.
func (a Algorithm) String() string {
	switch a {
	case MADDPG:
		return "maddpg"
	case MATD3:
		return "matd3"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// SamplerKind selects the mini-batch sampling strategy.
type SamplerKind int

// Sampling strategies studied by the paper.
const (
	// SamplerUniform is the baseline i.i.d. random sampling.
	SamplerUniform SamplerKind = iota
	// SamplerLocality is cache-locality-aware neighbor sampling (§IV-A).
	SamplerLocality
	// SamplerPER is proportional prioritized replay (PER-MADDPG baseline).
	SamplerPER
	// SamplerIPLocality is information-prioritized locality-aware sampling
	// (§IV-B1).
	SamplerIPLocality
)

// String returns the sampler kind's report name.
func (s SamplerKind) String() string {
	switch s {
	case SamplerUniform:
		return "uniform"
	case SamplerLocality:
		return "locality"
	case SamplerPER:
		return "per"
	case SamplerIPLocality:
		return "ip-locality"
	default:
		return fmt.Sprintf("sampler(%d)", int(s))
	}
}

// Config holds every hyperparameter of a training run. DefaultConfig
// returns the paper's settings (§V, Software Settings).
type Config struct {
	Algorithm Algorithm
	Sampler   SamplerKind

	// Locality sampling operating point; the paper evaluates (16, 64) and
	// (64, 16). Ignored by non-locality samplers.
	Neighbors int
	Refs      int

	// ISBeta is the Lemma-1 compensation parameter β for the IP sampler
	// (1 = full compensation).
	ISBeta float64

	BatchSize      int     // mini-batch size (paper: 1024)
	BufferCapacity int     // replay capacity (paper: 1 million)
	LR             float64 // Adam learning rate (paper: 0.01)
	Gamma          float64 // discount factor (paper: 0.95)
	Tau            float64 // target soft-update rate (paper: 0.01)
	HiddenSize     int     // MLP width (paper: 64, two layers)
	MaxEpisodeLen  int     // steps per episode (paper: 25)
	UpdateEvery    int     // env steps between updates (paper: 100)
	WarmupSize     int     // min buffer fill before updates (default: BatchSize)
	ClipNorm       float64 // gradient clip norm (reference impl: 0.5)
	GumbelTau      float64 // Gumbel-softmax temperature for exploration

	// MATD3 specifics.
	PolicyDelay     int     // actor/target update period (default 2)
	TargetNoiseStd  float64 // target policy smoothing noise
	TargetNoiseClip float64 // noise clip bound

	// UseKVLayout stores the replay rows as the key-value table of the
	// transition data-layout reorganization (§IV-B2) instead of per-agent
	// buffers: each row is interleaved once, as it is added, and a gather
	// runs O(m) row copies. The trainer keeps no other copy.
	UseKVLayout bool

	// UpdateWorkers sizes the per-agent worker pool of the update stage.
	// 0 (the default) resolves to runtime.GOMAXPROCS; 1 forces the serial
	// path. Any value produces bit-identical training results for the same
	// seed — each agent draws from its own RNG stream — so this is purely a
	// throughput knob.
	UpdateWorkers int

	Seed int64
}

// ResolvedUpdateWorkers returns the effective worker-pool size:
// UpdateWorkers when positive, otherwise runtime.GOMAXPROCS.
func (c Config) ResolvedUpdateWorkers() int {
	if c.UpdateWorkers > 0 {
		return c.UpdateWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultConfig returns the paper's hyperparameters for the given workload.
func DefaultConfig(algo Algorithm) Config {
	return Config{
		Algorithm:       algo,
		Sampler:         SamplerUniform,
		Neighbors:       16,
		Refs:            64,
		ISBeta:          1,
		BatchSize:       1024,
		BufferCapacity:  1_000_000,
		LR:              0.01,
		Gamma:           0.95,
		Tau:             0.01,
		HiddenSize:      64,
		MaxEpisodeLen:   25,
		UpdateEvery:     100,
		ClipNorm:        0.5,
		GumbelTau:       1.0,
		PolicyDelay:     2,
		TargetNoiseStd:  0.2,
		TargetNoiseClip: 0.5,
		Seed:            1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.BatchSize < 1 {
		return fmt.Errorf("core: BatchSize = %d, want ≥1", c.BatchSize)
	}
	if c.BufferCapacity < c.BatchSize {
		return fmt.Errorf("core: BufferCapacity %d below BatchSize %d", c.BufferCapacity, c.BatchSize)
	}
	if c.Gamma < 0 || c.Gamma > 1 {
		return fmt.Errorf("core: Gamma = %v, want [0,1]", c.Gamma)
	}
	if c.Tau <= 0 || c.Tau > 1 {
		return fmt.Errorf("core: Tau = %v, want (0,1]", c.Tau)
	}
	if c.HiddenSize < 1 {
		return fmt.Errorf("core: HiddenSize = %d, want ≥1", c.HiddenSize)
	}
	if c.MaxEpisodeLen < 1 {
		return fmt.Errorf("core: MaxEpisodeLen = %d, want ≥1", c.MaxEpisodeLen)
	}
	if c.UpdateEvery < 1 {
		return fmt.Errorf("core: UpdateEvery = %d, want ≥1", c.UpdateEvery)
	}
	if c.Sampler == SamplerLocality && (c.Neighbors < 1 || c.Refs < 1) {
		return fmt.Errorf("core: locality sampler needs Neighbors/Refs ≥1, got %d/%d", c.Neighbors, c.Refs)
	}
	if c.Algorithm == MATD3 && c.PolicyDelay < 1 {
		return fmt.Errorf("core: PolicyDelay = %d, want ≥1", c.PolicyDelay)
	}
	if c.GumbelTau <= 0 {
		return fmt.Errorf("core: GumbelTau = %v, want >0", c.GumbelTau)
	}
	if c.UpdateWorkers < 0 {
		return fmt.Errorf("core: UpdateWorkers = %d, want ≥0 (0 = GOMAXPROCS)", c.UpdateWorkers)
	}
	return nil
}
