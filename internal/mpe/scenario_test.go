package mpe

import (
	"math/rand"
	"testing"
)

// The paper reports these observation widths (§II-B).
func TestPredatorPreyPaperObservationDims(t *testing.T) {
	cases := []struct {
		predators int
		wantPred  int
	}{
		{3, 16},  // Box(16,) for each of 3 predators
		{24, 98}, // Box(98,) for each of 24 predators
	}
	for _, c := range cases {
		env := NewPredatorPrey(c.predators)
		for i, d := range env.ObsDims() {
			if d != c.wantPred {
				t.Fatalf("%d predators: obs dim[%d] = %d, want %d", c.predators, i, d, c.wantPred)
			}
		}
	}
}

func TestPredatorPreyScalingRules(t *testing.T) {
	if got := PreyCountFor(3); got != 1 {
		t.Fatalf("PreyCountFor(3) = %d, want 1", got)
	}
	if got := PreyCountFor(24); got != 8 {
		t.Fatalf("PreyCountFor(24) = %d, want 8", got)
	}
	if got := LandmarkCountFor(3); got != 2 {
		t.Fatalf("LandmarkCountFor(3) = %d, want 2", got)
	}
	if got := LandmarkCountFor(24); got != 8 {
		t.Fatalf("LandmarkCountFor(24) = %d, want 8", got)
	}
}

func TestCoopNavPaperObservationDims(t *testing.T) {
	for _, c := range []struct{ n, want int }{{3, 18}, {6, 36}, {12, 72}, {24, 144}} {
		env := NewCooperativeNavigation(c.n)
		for i, d := range env.ObsDims() {
			if d != c.want {
				t.Fatalf("%d agents: obs dim[%d] = %d, want %d", c.n, i, d, c.want)
			}
		}
	}
}

func TestResetReturnsCorrectShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, env := range []Env{NewPredatorPrey(3), NewCooperativeNavigation(3)} {
		obs := env.Reset(rng)
		if len(obs) != env.NumAgents() {
			t.Fatalf("%s: Reset returned %d observations, want %d", env.Name(), len(obs), env.NumAgents())
		}
		for i, o := range obs {
			if len(o) != env.ObsDims()[i] {
				t.Fatalf("%s: obs[%d] has %d values, want %d", env.Name(), i, len(o), env.ObsDims()[i])
			}
		}
	}
}

func TestStepReturnsCorrectShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, env := range []Env{NewPredatorPrey(3), NewCooperativeNavigation(6)} {
		env.Reset(rng)
		actions := make([]int, env.NumAgents())
		for i := range actions {
			actions[i] = rng.Intn(env.NumActions())
		}
		obs, rw := env.Step(actions)
		if len(obs) != env.NumAgents() || len(rw) != env.NumAgents() {
			t.Fatalf("%s: Step returned %d obs / %d rewards for %d agents", env.Name(), len(obs), len(rw), env.NumAgents())
		}
	}
}

func TestStepWrongActionCountPanics(t *testing.T) {
	env := NewPredatorPrey(3)
	env.Reset(rand.New(rand.NewSource(3)))
	defer func() {
		if recover() == nil {
			t.Fatal("Step with wrong action count did not panic")
		}
	}()
	env.Step([]int{0})
}

func TestCoopNavRewardIsSharedAndNegativeAtSpawn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	env := NewCooperativeNavigation(3)
	env.Reset(rng)
	_, rw := env.Step([]int{0, 0, 0})
	// All agents share the landmark-coverage term. Collision penalties are
	// individual, but with static agents freshly spawned apart they rarely
	// collide; assert the shared structure via pairwise closeness and sign.
	if rw[0] >= 0 {
		t.Fatalf("coop-nav reward should be negative while landmarks uncovered, got %v", rw[0])
	}
}

func TestCoopNavRewardImprovesWhenAgentsOnLandmarks(t *testing.T) {
	env := NewCooperativeNavigation(2)
	env.Reset(rand.New(rand.NewSource(5)))
	// Force agents onto landmarks.
	for i, ag := range env.world.Agents {
		ag.Pos = env.world.Landmarks[i].Pos
	}
	rwOn := append([]float64(nil), env.rewards()...) // valid until the next call only
	for i, ag := range env.world.Agents {
		ag.Pos = env.world.Landmarks[i].Pos.Add(Vec2{3, 3})
	}
	rwOff := env.rewards()
	if rwOn[0] <= rwOff[0] {
		t.Fatalf("reward on landmarks (%v) should beat far away (%v)", rwOn[0], rwOff[0])
	}
}

func TestPredatorRewardOnCollision(t *testing.T) {
	env := NewPredatorPreyCustom(2, 1, 0)
	env.Reset(rand.New(rand.NewSource(6)))
	pred := env.world.Agents[0]
	prey := env.world.Agents[2]
	pred.Pos = Vec2{0, 0}
	prey.Pos = Vec2{0.01, 0} // overlapping
	env.world.Agents[1].Pos = Vec2{5, 5}
	rw := env.rewards()
	if rw[0] < 9 { // +10 collision minus small shaping
		t.Fatalf("predator touching prey should get ≈+10, got %v", rw[0])
	}
	if rw[1] >= 0 {
		t.Fatalf("distant predator should get negative shaped reward, got %v", rw[1])
	}
}

func TestPreyFleesNearestPredator(t *testing.T) {
	env := NewPredatorPreyCustom(1, 1, 0)
	env.rng = rand.New(rand.NewSource(42))
	pred := env.world.Agents[0]
	prey := env.world.Agents[1]
	pred.Pos = Vec2{0, 0}
	prey.Pos = Vec2{0.5, 0}
	// Deterministic branch (rng draw above 0.1 on this seed stream would be
	// flaky, so check the greedy policy directly many times and require the
	// flee direction to dominate).
	rightCount := 0
	for i := 0; i < 100; i++ {
		if env.preyPolicy(prey) == 1 { // action 1 = move right, away from predator
			rightCount++
		}
	}
	if rightCount < 80 {
		t.Fatalf("prey fled right only %d/100 times", rightCount)
	}
}

func TestPreyBoundaryBias(t *testing.T) {
	env := NewPredatorPreyCustom(1, 1, 0)
	env.rng = rand.New(rand.NewSource(43))
	pred := env.world.Agents[0]
	prey := env.world.Agents[1]
	// Predator to the left, prey far out of bounds right: wall bias should
	// overcome the flee direction.
	pred.Pos = Vec2{1.0, 0}
	prey.Pos = Vec2{5, 0}
	leftCount := 0
	for i := 0; i < 100; i++ {
		if env.preyPolicy(prey) == 2 { // move left, back into the arena
			leftCount++
		}
	}
	if leftCount < 80 {
		t.Fatalf("out-of-bounds prey moved back only %d/100 times", leftCount)
	}
}

func TestNewPredatorPreyPanicsOnZeroAgents(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPredatorPrey(0) did not panic")
		}
	}()
	NewPredatorPrey(0)
}

func TestNewCoopNavPanicsOnZeroAgents(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCooperativeNavigation(0) did not panic")
		}
	}()
	NewCooperativeNavigation(0)
}

func TestObservationsAreFiniteOverRandomRollout(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, env := range []Env{NewPredatorPrey(6), NewCooperativeNavigation(6)} {
		obs := env.Reset(rng)
		actions := make([]int, env.NumAgents())
		for step := 0; step < 100; step++ {
			for i := range actions {
				actions[i] = rng.Intn(env.NumActions())
			}
			var rw []float64
			obs, rw = env.Step(actions)
			for i, o := range obs {
				for j, v := range o {
					if v != v { // NaN check
						t.Fatalf("%s: NaN in obs[%d][%d] at step %d", env.Name(), i, j, step)
					}
				}
			}
			for i, v := range rw {
				if v != v {
					t.Fatalf("%s: NaN reward[%d] at step %d", env.Name(), i, step)
				}
			}
		}
	}
}
