package rollout

import (
	"math/rand"
	"runtime"
	"testing"

	"marlperf/internal/mpe"
	"marlperf/internal/nn"
	"marlperf/internal/replay"
	"marlperf/internal/tensor"
)

// packSink does what every real sink does first — interleave the step into
// one packed row (RowLayout.PackRow) — into a row it reuses, and nothing else.
type packSink struct {
	layout replay.RowLayout
	row    []float64
}

// engineSpec is the one-row replay spec of eng's transitions.
func engineSpec(eng *Engine) replay.Spec {
	return replay.Spec{NumAgents: eng.n, ObsDims: eng.obsDims, ActDim: eng.actDim, Capacity: 1}
}

func newPackSink(spec replay.Spec) *packSink {
	l := replay.NewRowLayout(spec)
	return &packSink{layout: l, row: make([]float64, l.Stride())}
}

func (s *packSink) Add(obs, act [][]float64, rew []float64, nextObs [][]float64, done []float64) error {
	s.layout.PackRow(s.row, obs, act, rew, nextObs, done)
	return nil
}

func (s *packSink) Flush() error { return nil }

// benchPolicy is the acting policy the loop runs: two hidden layers of 64.
func benchPolicy(env mpe.Env) []*nn.Network {
	rng := rand.New(rand.NewSource(21))
	policy := make([]*nn.Network, env.NumAgents())
	for i, d := range env.ObsDims() {
		policy[i] = nn.NewMLP(rng, d, 64, 64, env.NumActions())
	}
	return policy
}

func newPackingEngine(t testing.TB, newEnv func() mpe.Env, envs int) *Engine {
	t.Helper()
	eng, err := NewEngine(Config{NewEnv: newEnv, Envs: envs, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	eng.cfg.Sink = newPackSink(engineSpec(eng))
	if err := eng.Install(1, benchPolicy(newEnv())); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineStepDoesNotAllocate: a warmed Step over eight envs — forwards,
// exploration draws, env physics, observations, rewards, row packing, and
// the episode resets the 30 steps of a trial cross — touches no heap, in
// every scenario, with a second core to spare. Mallocs are counted with
// ReadMemStats, fewest of five trials: testing.AllocsPerRun would pin
// GOMAXPROCS to 1.
func TestEngineStepDoesNotAllocate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for name, newEnv := range map[string]func() mpe.Env{
		"predator-prey": func() mpe.Env { return mpe.NewPredatorPrey(3) },
		"coop-nav":      func() mpe.Env { return mpe.NewCooperativeNavigation(3) },
		"deception":     func() mpe.Env { return mpe.NewPhysicalDeception(2) },
	} {
		eng := newPackingEngine(t, newEnv, 8)
		const steps = 30 // more than an episode: every trial resets all eight envs
		run := func() (episodes int) {
			for s := 0; s < steps; s++ {
				n, err := eng.Step()
				if err != nil {
					t.Fatal(err)
				}
				episodes += n
			}
			return episodes
		}
		run()
		var before, after runtime.MemStats
		fewest := ^uint64(0)
		for trial := 0; trial < 5; trial++ {
			runtime.ReadMemStats(&before)
			episodes := run()
			runtime.ReadMemStats(&after)
			if episodes == 0 {
				t.Fatalf("%s: a trial of %d steps crossed no episode reset", name, steps)
			}
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		if fewest != 0 {
			t.Fatalf("%s: %d warmed Steps allocate %d times at GOMAXPROCS=2, want 0", name, steps, fewest)
		}
	}
}

// BenchmarkEngineStep times one Step of the loop's actor — eight
// predator-prey envs of three predators into a packing sink — and, alone,
// the four terms it is made of: the three batched forwards, one agent's
// block of exploration draws, one env's physics step, one row packed.
// `make bench-step` runs it ten times into quartiles.
func BenchmarkEngineStep(b *testing.B) {
	const envs = 8
	newEnv := func() mpe.Env { return mpe.NewPredatorPrey(3) }

	b.Run("Step", func(b *testing.B) {
		eng := newPackingEngine(b, newEnv, envs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("ActCoreForward", func(b *testing.B) {
		env := newEnv()
		core := NewActCore(env.ObsDims(), env.NumActions(), envs)
		if err := core.SetAgents(benchPolicy(env)); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		core.Begin(envs)
		obs := env.Reset(rng)
		for row := 0; row < envs; row++ {
			for i := range obs {
				core.SetObs(row, i, obs[i])
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.Forward()
		}
	})

	b.Run("GumbelSoftmaxRows", func(b *testing.B) {
		rng := rand.New(rand.NewSource(4))
		logits, probs := tensor.New(envs, mpe.NumActions), tensor.New(envs, mpe.NumActions)
		logits.RandNormal(rng, 0, 1)
		rngs := make([]*rand.Rand, envs)
		for r := range rngs {
			rngs[r] = rand.New(rand.NewSource(int64(r)))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nn.GumbelSoftmaxRows(probs, logits, 1, rngs)
		}
	})

	b.Run("PredatorPreyStep", func(b *testing.B) {
		env := newEnv()
		rng := rand.New(rand.NewSource(5))
		env.Reset(rng)
		actions := make([]int, env.NumAgents())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for a := range actions {
				actions[a] = (i + a) % mpe.NumActions
			}
			env.Step(actions)
			if i%25 == 24 {
				env.Reset(rng)
			}
		}
	})

	b.Run("SinkAdd", func(b *testing.B) {
		env := newEnv()
		obs := env.Reset(rand.New(rand.NewSource(6)))
		next, rew := env.Step(make([]int, env.NumAgents()))
		probs, done := make([][]float64, env.NumAgents()), make([]float64, env.NumAgents())
		for i := range probs {
			probs[i] = make([]float64, env.NumActions())
		}
		sink := newPackSink(replay.Spec{NumAgents: env.NumAgents(), ObsDims: env.ObsDims(), ActDim: env.NumActions(), Capacity: 1})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sink.Add(obs, probs, rew, next, done); err != nil {
				b.Fatal(err)
			}
		}
	})
}
