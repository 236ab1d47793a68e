package mpe

import (
	"fmt"
	"math"
	"math/rand"
)

// PhysicalDeception is the mixed cooperative-competitive scenario
// (simple_adversary in the particle-env suite the paper builds on): N good
// agents and one adversary move among N landmarks, one of which is the
// secret target. Good agents know the target and share a reward for
// reaching it while keeping the adversary away; the adversary cannot
// observe which landmark is the target and must infer it from the good
// agents' behavior. The paper's background (§II-B) covers exactly this
// class of mixed tasks; this scenario extends the evaluation beyond the
// two workloads the paper measures.
type PhysicalDeception struct {
	world   *World
	nGood   int
	target  int // landmark index
	obsDims []int
	buf     stepBuffers
}

// NewPhysicalDeception builds the scenario with nGood cooperating agents,
// one adversary (the last trainable agent), and nGood landmarks.
func NewPhysicalDeception(nGood int) *PhysicalDeception {
	if nGood < 1 {
		panic(fmt.Sprintf("mpe: need at least one good agent, got %d", nGood))
	}
	p := &PhysicalDeception{nGood: nGood}
	w := &World{}
	for i := 0; i < nGood; i++ {
		w.Agents = append(w.Agents, &Agent{
			Entity: Entity{
				Name: fmt.Sprintf("good_%d", i), Size: 0.1, Mass: 1,
				Accel: 4.0, Movable: true, Collide: false,
			},
		})
	}
	w.Agents = append(w.Agents, &Agent{
		Entity: Entity{
			Name: "adversary", Size: 0.1, Mass: 1,
			Accel: 4.0, Movable: true, Collide: false,
		},
		Adversary: true,
	})
	for i := 0; i < nGood; i++ {
		w.Landmarks = append(w.Landmarks, &Entity{
			Name: fmt.Sprintf("landmark_%d", i), Size: 0.05, Collide: false,
		})
	}
	p.world = w
	total := nGood + 1
	p.obsDims = make([]int, total)
	for i := 0; i < nGood; i++ {
		// self vel+pos, target rel, landmark rel×L, others rel×(T-1).
		p.obsDims[i] = 4 + 2 + 2*nGood + 2*(total-1)
	}
	// The adversary lacks the target-relative term.
	p.obsDims[nGood] = 4 + 2*nGood + 2*(total-1)
	p.buf = newStepBuffers(p.obsDims)
	return p
}

// Name implements Env.
func (p *PhysicalDeception) Name() string { return "physical-deception" }

// NumAgents implements Env: all good agents plus the adversary train.
func (p *PhysicalDeception) NumAgents() int { return p.nGood + 1 }

// NumActions implements Env.
func (p *PhysicalDeception) NumActions() int { return NumActions }

// ObsDims implements Env.
func (p *PhysicalDeception) ObsDims() []int { return p.obsDims }

// Reset implements Env, re-randomizing positions and the secret target.
func (p *PhysicalDeception) Reset(rng *rand.Rand) [][]float64 {
	for _, ag := range p.world.Agents {
		ag.Pos = randomPos(rng, 1)
		ag.Vel = Vec2{}
		ag.action = Vec2{}
	}
	for _, lm := range p.world.Landmarks {
		lm.Pos = randomPos(rng, 0.9)
	}
	p.target = rng.Intn(len(p.world.Landmarks))
	return p.observations()
}

// Step implements Env.
func (p *PhysicalDeception) Step(actions []int) ([][]float64, []float64) {
	if len(actions) != p.NumAgents() {
		panic(fmt.Sprintf("mpe: PhysicalDeception.Step got %d actions, want %d", len(actions), p.NumAgents()))
	}
	for i, a := range actions {
		p.world.SetAction(i, a)
	}
	p.world.Step()
	return p.observations(), p.rewards()
}

// rewards: good agents share
// adversaryDist(target) − min_good dist(target); the adversary receives
// −dist(adversary, target).
func (p *PhysicalDeception) rewards() []float64 {
	target := p.world.Landmarks[p.target]
	adv := p.world.Agents[p.nGood]
	advDist := adv.Pos.Sub(target.Pos).Norm()
	minGood := math.Inf(1)
	for i := 0; i < p.nGood; i++ {
		if d := p.world.Agents[i].Pos.Sub(target.Pos).Norm(); d < minGood {
			minGood = d
		}
	}
	rw := p.buf.rew
	goodReward := advDist - minGood
	for i := 0; i < p.nGood; i++ {
		rw[i] = goodReward
	}
	rw[p.nGood] = -advDist
	return rw
}

func (p *PhysicalDeception) observations() [][]float64 {
	total := p.NumAgents()
	obs := p.buf.nextObs()
	target := p.world.Landmarks[p.target]
	for i := 0; i < total; i++ {
		self := p.world.Agents[i]
		v := obs[i][:0]
		v = append(v, self.Vel.X, self.Vel.Y, self.Pos.X, self.Pos.Y)
		if i < p.nGood {
			rel := target.Pos.Sub(self.Pos)
			v = append(v, rel.X, rel.Y)
		}
		for _, lm := range p.world.Landmarks {
			rel := lm.Pos.Sub(self.Pos)
			v = append(v, rel.X, rel.Y)
		}
		for j, other := range p.world.Agents {
			if j == i {
				continue
			}
			rel := other.Pos.Sub(self.Pos)
			v = append(v, rel.X, rel.Y)
		}
		obs[i] = v
	}
	return obs
}
