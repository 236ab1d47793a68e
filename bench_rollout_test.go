package marlperf

// Rollout-engine benchmark: the cost of one environment step through the
// vectorized actor, swept across env counts for both acting modes — "vec"
// (one B-row batched forward per agent) versus "perenv" (B separate 1-row
// forwards, the pre-vectorization baseline). Both modes produce bit-identical
// trajectories (see internal/rollout tests), so the delta is pure batching
// efficiency. The grid is written to BENCH_rollout.json with the same
// provenance stamps as the other BENCH_*.json sweeps.

import (
	"math/rand"
	"testing"

	"marlperf/internal/mpe"
	"marlperf/internal/nn"
	"marlperf/internal/rollout"
)

// rolloutSweepRow is one (envs, mode, sync_every) cell of the sweep.
type rolloutSweepRow struct {
	Envs           int     `json:"envs"`
	Mode           string  `json:"mode"`
	SyncEvery      int     `json:"sync_every"`
	NsPerEnvStep   float64 `json:"ns_per_env_step"`
	Iters          int     `json:"iters"`
	EnvStepsPerSec float64 `json:"env_steps_per_sec"`
}

// rolloutSweepCell is one benchmark configuration.
type rolloutSweepCell struct {
	envs      int
	perEnv    bool
	syncEvery int // engine steps between simulated policy hot-swaps
}

func (c rolloutSweepCell) mode() string {
	if c.perEnv {
		return "perenv"
	}
	return "vec"
}

// BenchmarkRolloutVec sweeps env count × acting mode × sync cadence and
// writes BENCH_rollout.json. ns_per_env_step is normalized per env, so a
// flat line means batching buys nothing and a falling "vec" line is the
// vectorization win; CI asserts vec beats perenv at 8 envs. The sync-cadence
// cells re-Install the policy every sync_every engine steps, pricing the
// hot-swap an actor pays when it tracks a fast-publishing learner.
func BenchmarkRolloutVec(b *testing.B) {
	newEnv := func() mpe.Env { return mpe.NewPredatorPrey(3) }
	probe := newEnv()
	rng := rand.New(rand.NewSource(21))
	policy := make([]*nn.Network, probe.NumAgents())
	for i, d := range probe.ObsDims() {
		policy[i] = nn.NewMLP(rng, d, 64, 64, probe.NumActions())
	}

	// Env-count × mode grid at the default actor sync cadence, plus a sync
	// cadence sweep at the CI reference point (8 envs, batched).
	var sweep []rolloutSweepCell
	for _, envs := range []int{1, 2, 4, 8, 16} {
		sweep = append(sweep,
			rolloutSweepCell{envs: envs, perEnv: false, syncEvery: 25},
			rolloutSweepCell{envs: envs, perEnv: true, syncEvery: 25},
		)
	}
	for _, syncEvery := range []int{1, 5, 100} {
		sweep = append(sweep, rolloutSweepCell{envs: 8, perEnv: false, syncEvery: syncEvery})
	}

	// The testing package re-invokes each sub-benchmark while calibrating
	// b.N; keep only the final (fully calibrated) measurement per cell.
	cells := make(map[string]rolloutSweepRow)
	var order []string
	for _, cell := range sweep {
		cell := cell
		name := benchName("envs", cell.envs) + "/" + cell.mode() + "/" + benchName("sync", cell.syncEvery)
		b.Run(name, func(b *testing.B) {
			eng, err := rollout.NewEngine(rollout.Config{
				NewEnv: newEnv, Envs: cell.envs, Seed: 33, PerEnvForward: cell.perEnv,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Install(1, policy); err != nil {
				b.Fatal(err)
			}
			version := uint64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%cell.syncEvery == 0 {
					version++
					if err := eng.Install(version, policy); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := eng.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			nsEnvStep := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(cell.envs)
			sps := 0.0
			if nsEnvStep > 0 {
				sps = 1e9 / nsEnvStep
			}
			if _, seen := cells[name]; !seen {
				order = append(order, name)
			}
			cells[name] = rolloutSweepRow{
				Envs: cell.envs, Mode: cell.mode(), SyncEvery: cell.syncEvery,
				NsPerEnvStep: nsEnvStep, Iters: b.N, EnvStepsPerSec: sps,
			}
		})
	}
	if len(order) == 0 {
		return
	}
	rows := make([]rolloutSweepRow, 0, len(order))
	for _, name := range order {
		rows = append(rows, cells[name])
	}
	writeBenchFile(b, "BENCH_rollout.json", "RolloutVec", "ns/env_step", rows)
}
