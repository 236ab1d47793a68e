package mpe

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func clone2d(src [][]float64) [][]float64 {
	out := make([][]float64, len(src))
	for i, s := range src {
		out[i] = append([]float64(nil), s...)
	}
	return out
}

func sameBits2d(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEnvContract runs every scenario through the shared Env contract:
// shape consistency between ObsDims/Reset/Step, reward finiteness, action
// robustness, determinism under a fixed seed, and the ownership rule stated on
// Env — what a call returns is the environment's, for how long it stays
// intact, and that a steady-state Step allocates nothing.
func TestEnvContract(t *testing.T) {
	scenarios := []struct {
		name string
		mk   func() Env
	}{
		{"predator-prey-3", func() Env { return NewPredatorPrey(3) }},
		{"predator-prey-6", func() Env { return NewPredatorPrey(6) }},
		{"coop-nav-3", func() Env { return NewCooperativeNavigation(3) }},
		{"coop-nav-5", func() Env { return NewCooperativeNavigation(5) }},
		{"deception-2", func() Env { return NewPhysicalDeception(2) }},
		{"deception-4", func() Env { return NewPhysicalDeception(4) }},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			env := sc.mk()
			if env.Name() == "" {
				t.Fatal("empty Name")
			}
			n := env.NumAgents()
			if n < 1 {
				t.Fatalf("NumAgents = %d", n)
			}
			dims := env.ObsDims()
			if len(dims) != n {
				t.Fatalf("%d obs dims for %d agents", len(dims), n)
			}
			if env.NumActions() != NumActions {
				t.Fatalf("NumActions = %d, want %d", env.NumActions(), NumActions)
			}
			rng := rand.New(rand.NewSource(77))
			obs := env.Reset(rng)
			if len(obs) != n {
				t.Fatalf("Reset returned %d observations", len(obs))
			}
			for i, o := range obs {
				if len(o) != dims[i] {
					t.Fatalf("obs[%d] width %d, want %d", i, len(o), dims[i])
				}
			}
			actions := make([]int, n)
			for step := 0; step < 60; step++ {
				for i := range actions {
					actions[i] = rng.Intn(NumActions)
				}
				next, rw := env.Step(actions)
				if len(next) != n || len(rw) != n {
					t.Fatalf("Step returned %d obs / %d rewards", len(next), len(rw))
				}
				for i, o := range next {
					if len(o) != dims[i] {
						t.Fatalf("step obs[%d] width %d, want %d", i, len(o), dims[i])
					}
					for _, v := range o {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("non-finite observation at step %d", step)
						}
					}
				}
				for _, v := range rw {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("non-finite reward at step %d", step)
					}
				}
			}

			// Ownership. The observation set of call t is intact after
			// call t+1, a Step or a Reset; the rewards of call t are intact
			// until call t+1; and nothing a second environment of the same
			// constructor does reaches either.
			other := sc.mk()
			otherRng := rand.New(rand.NewSource(78))
			other.Reset(otherRng)
			prev := env.Reset(rng)
			prevCopy := clone2d(prev)
			for step := 0; step < 60; step++ {
				for i := range actions {
					actions[i] = rng.Intn(NumActions)
				}
				var cur [][]float64
				var rw []float64
				if step%7 == 6 {
					cur = env.Reset(rng)
				} else {
					cur, rw = env.Step(actions)
				}
				if !sameBits2d(prev, prevCopy) {
					t.Fatalf("call %d overwrote the observations the call before it returned", step)
				}
				curCopy, rwCopy := clone2d(cur), append([]float64(nil), rw...)
				other.Step(actions)
				if step%5 == 4 {
					other.Reset(otherRng)
				}
				if !sameBits2d(cur, curCopy) || !sameBits(rw, rwCopy) || !sameBits2d(prev, prevCopy) {
					t.Fatalf("call %d: another environment's step wrote into this one's storage", step)
				}
				prev, prevCopy = cur, curCopy
			}

			// A Step at steady state touches no heap (fewest of five trials
			// at GOMAXPROCS=2, as the kernels' allocation tests count).
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			var before, after runtime.MemStats
			fewest := ^uint64(0)
			for trial := 0; trial < 5; trial++ {
				runtime.ReadMemStats(&before)
				for step := 0; step < 10; step++ {
					env.Step(actions)
				}
				runtime.ReadMemStats(&after)
				fewest = min(fewest, after.Mallocs-before.Mallocs)
			}
			if fewest != 0 {
				t.Fatalf("10 steps allocate %d times, want 0", fewest)
			}

			// Determinism: identical seeds produce identical trajectories.
			run := func() []float64 {
				e := sc.mk()
				r := rand.New(rand.NewSource(123))
				e.Reset(r)
				var rewards []float64
				acts := make([]int, e.NumAgents())
				for step := 0; step < 20; step++ {
					for i := range acts {
						acts[i] = r.Intn(NumActions)
					}
					_, rw := e.Step(acts)
					rewards = append(rewards, rw...)
				}
				return rewards
			}
			a, b := run(), run()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("non-deterministic rewards at %d: %v vs %v", i, a[i], b[i])
				}
			}
		})
	}
}
