package mpe

import (
	"math/rand"
	"testing"
)

func TestPhysicalDeceptionShapes(t *testing.T) {
	env := NewPhysicalDeception(2)
	if env.NumAgents() != 3 {
		t.Fatalf("NumAgents = %d, want 3 (2 good + adversary)", env.NumAgents())
	}
	// Good: 4 + 2 + 2·2 + 2·2 = 14; adversary: 4 + 2·2 + 2·2 = 12.
	dims := env.ObsDims()
	if dims[0] != 14 || dims[1] != 14 || dims[2] != 12 {
		t.Fatalf("obs dims = %v, want [14 14 12]", dims)
	}
	rng := rand.New(rand.NewSource(1))
	obs := env.Reset(rng)
	for i, o := range obs {
		if len(o) != dims[i] {
			t.Fatalf("obs[%d] has %d values, want %d", i, len(o), dims[i])
		}
	}
}

func TestPhysicalDeceptionAdversaryCannotSeeTarget(t *testing.T) {
	// The adversary's observation must be invariant to which landmark is
	// the target (given identical world geometry).
	env := NewPhysicalDeception(2)
	rng := rand.New(rand.NewSource(2))
	env.Reset(rng)
	env.target = 0
	obs0 := env.observations()
	advBefore := append([]float64(nil), obs0[2]...)
	env.target = 1
	obs1 := env.observations()
	for i, v := range obs1[2] {
		if v != advBefore[i] {
			t.Fatal("adversary observation depends on the secret target")
		}
	}
	// Good agents' observations must change with the target.
	changed := false
	for i, v := range obs1[0] {
		if v != obs0[0][i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("good agent observation ignores the target")
	}
}

func TestPhysicalDeceptionRewardsAreZeroSumFlavored(t *testing.T) {
	env := NewPhysicalDeception(2)
	env.Reset(rand.New(rand.NewSource(3)))
	// Good agent on target, adversary far: good reward high, adversary low.
	target := env.world.Landmarks[env.target]
	env.world.Agents[0].Pos = target.Pos
	env.world.Agents[1].Pos = target.Pos.Add(Vec2{2, 2})
	env.world.Agents[2].Pos = target.Pos.Add(Vec2{3, 3})
	rw := append([]float64(nil), env.rewards()...) // valid until the next call only
	if rw[0] != rw[1] {
		t.Fatalf("good agents should share rewards: %v vs %v", rw[0], rw[1])
	}
	if rw[0] <= 0 {
		t.Fatalf("good on target, adversary far: reward %v should be positive", rw[0])
	}
	if rw[2] >= 0 {
		t.Fatalf("adversary far from target should get negative reward, got %v", rw[2])
	}

	// Adversary on target: good reward drops, adversary reward rises.
	env.world.Agents[2].Pos = target.Pos
	rw2 := env.rewards()
	if rw2[0] >= rw[0] {
		t.Fatal("adversary reaching the target should hurt the good agents")
	}
	if rw2[2] <= rw[2] {
		t.Fatal("adversary reaching the target should raise its reward")
	}
}

func TestPhysicalDeceptionStepAndEpisode(t *testing.T) {
	env := NewPhysicalDeception(2)
	rng := rand.New(rand.NewSource(4))
	env.Reset(rng)
	actions := make([]int, env.NumAgents())
	for step := 0; step < 50; step++ {
		for i := range actions {
			actions[i] = rng.Intn(env.NumActions())
		}
		obs, rw := env.Step(actions)
		if len(obs) != 3 || len(rw) != 3 {
			t.Fatalf("step returned %d obs / %d rewards", len(obs), len(rw))
		}
		for _, o := range obs {
			for _, v := range o {
				if v != v {
					t.Fatal("NaN in observation")
				}
			}
		}
	}
}

func TestPhysicalDeceptionTargetRerandomizedOnReset(t *testing.T) {
	env := NewPhysicalDeception(4) // 4 landmarks, so targets vary
	rng := rand.New(rand.NewSource(5))
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		env.Reset(rng)
		seen[env.target] = true
	}
	if len(seen) < 2 {
		t.Fatalf("target landmark never varied across resets: %v", seen)
	}
}

func TestPhysicalDeceptionPanicsOnZeroGood(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPhysicalDeception(0) did not panic")
		}
	}()
	NewPhysicalDeception(0)
}

func TestPhysicalDeceptionTrainsWithMARLInterface(t *testing.T) {
	// The scenario must satisfy the Env contract end to end.
	var env Env = NewPhysicalDeception(2)
	obs := env.Reset(rand.New(rand.NewSource(6)))
	actions := make([]int, env.NumAgents())
	for i := 0; i < 25; i++ { // one episode at the paper's cap
		var rewards []float64
		obs, rewards = env.Step(actions)
		if len(obs) != env.NumAgents() || len(rewards) != env.NumAgents() {
			t.Fatalf("step %d: %d observations, %d rewards for %d agents", i, len(obs), len(rewards), env.NumAgents())
		}
	}
}
