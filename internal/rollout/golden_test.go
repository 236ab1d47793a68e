package rollout

import (
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"marlperf/internal/f64le"
	"marlperf/internal/mpe"
	"marlperf/internal/nn"
	"marlperf/internal/profiler"
	"marlperf/internal/replay"
)

// crcSink packs every transition as the replay fabric would
// (RowLayout.PackRow) and folds the row's little-endian bytes into one
// CRC-32: every obs, prob, reward, next-obs and done bit of a run, in
// (step, env) order, in four bytes.
type crcSink struct {
	layout replay.RowLayout
	row    []float64
	rows   int
	crc    uint32
}

func newCRCSink(spec replay.Spec) *crcSink {
	l := replay.NewRowLayout(spec)
	return &crcSink{layout: l, row: make([]float64, l.Stride())}
}

func (s *crcSink) Add(obs, act [][]float64, rew []float64, nextObs [][]float64, done []float64) error {
	s.layout.PackRow(s.row, obs, act, rew, nextObs, done)
	s.crc = crc32.Update(s.crc, crc32.IEEETable, f64le.Bytes(s.row))
	s.rows++
	return nil
}

func (s *crcSink) Flush() error { return nil }

// goldenRollouts are the trajectories of the engine, as CRCs. They were first
// computed before the acting tier was touched and edited once since, when
// every product step became one fused multiply-add: the new values read the
// same with the process forced onto each of the three product bodies (Go,
// AVX2, AVX-512). Both acting modes must produce each one.
var goldenRollouts = []struct {
	name   string
	newEnv func() mpe.Env
	envs   int
	nanFor int // agent whose head emits NaN logits; -1 for none
	crc    uint32
}{
	{"predator-prey-3", func() mpe.Env { return mpe.NewPredatorPrey(3) }, 1, -1, 0x842a3921},
	{"predator-prey-3", func() mpe.Env { return mpe.NewPredatorPrey(3) }, 8, -1, 0xd1812347},
	{"predator-prey-6", func() mpe.Env { return mpe.NewPredatorPrey(6) }, 1, -1, 0x8c8e3151},
	{"predator-prey-6", func() mpe.Env { return mpe.NewPredatorPrey(6) }, 8, -1, 0x856765c5},
	{"coop-nav-3", func() mpe.Env { return mpe.NewCooperativeNavigation(3) }, 1, -1, 0x6ef4795f},
	{"coop-nav-3", func() mpe.Env { return mpe.NewCooperativeNavigation(3) }, 8, -1, 0x55b5df47},
	{"deception-2", func() mpe.Env { return mpe.NewPhysicalDeception(2) }, 1, -1, 0xf24a6b5d},
	{"deception-2", func() mpe.Env { return mpe.NewPhysicalDeception(2) }, 8, -1, 0x206e4903},
	// A diverged head: agent 1's logits are NaN on every step, so its probs
	// are the uniform fallback and its action the sanitising rng.Intn, drawn
	// between agent 0's and agent 2's Gumbel noise on each env's stream.
	{"predator-prey-3", func() mpe.Env { return mpe.NewPredatorPrey(3) }, 1, 1, 0xc2f381f9},
	{"predator-prey-3", func() mpe.Env { return mpe.NewPredatorPrey(3) }, 8, 1, 0xb5566a67},
}

// TestRolloutGoldenTrajectories pins what an actor ships, bit for bit: for
// every scenario, vector width and acting mode, 60 steps under a fixed
// policy and seed — two episode boundaries per env, so resets are inside the
// stream — must pack to the recorded CRC.
func TestRolloutGoldenTrajectories(t *testing.T) {
	const (
		steps = 60
		seed  = 20240
	)
	for _, g := range goldenRollouts {
		for _, perEnv := range []bool{false, true} {
			mode := "batched"
			if perEnv {
				mode = "perenv"
			}
			name := fmt.Sprintf("%s/envs%d/%s", g.name, g.envs, mode)
			if g.nanFor >= 0 {
				name += "/nan"
			}
			t.Run(name, func(t *testing.T) {
				policy := testPolicy(t, 31, g.newEnv())
				if g.nanFor >= 0 {
					head := policy[g.nanFor].Layers[len(policy[g.nanFor].Layers)-1].(*nn.Dense)
					head.B.Data[0] = math.NaN()
					for i := range head.W.Data {
						head.W.Data[i] = math.NaN()
					}
				}
				eng, err := NewEngine(Config{NewEnv: g.newEnv, Envs: g.envs, Seed: seed, PerEnvForward: perEnv})
				if err != nil {
					t.Fatal(err)
				}
				sink := newCRCSink(engineSpec(eng))
				eng.cfg.Sink = sink
				if err := eng.Install(1, policy); err != nil {
					t.Fatal(err)
				}
				episodes := 0
				for s := 0; s < steps; s++ {
					n, err := eng.Step()
					if err != nil {
						t.Fatal(err)
					}
					episodes += n
				}
				if sink.rows != steps*g.envs {
					t.Fatalf("%d rows, want %d", sink.rows, steps*g.envs)
				}
				if want := 2 * g.envs; episodes != want {
					t.Fatalf("%d episodes, want %d", episodes, want)
				}
				sanitised := eng.Profile().EventCount(profiler.EventActionSanitized)
				if want := uint64(steps * g.envs); g.nanFor >= 0 && sanitised != want {
					t.Fatalf("%d sanitised actions, want %d", sanitised, want)
				}
				if g.nanFor < 0 && sanitised != 0 {
					t.Fatalf("%d sanitised actions under a finite policy", sanitised)
				}
				if sink.crc != g.crc {
					t.Fatalf("trajectory CRC %#08x, golden %#08x", sink.crc, g.crc)
				}
			})
		}
	}
}
