package mpe

import (
	"fmt"
	"math"
	"math/rand"
)

// CooperativeNavigation is the cooperative spread scenario: N agents must
// jointly cover N landmarks while avoiding collisions with each other. The
// shared reward is the negative sum over landmarks of the distance to the
// closest agent, minus a collision penalty. With L = N landmarks the
// observation width is 6N, matching the paper's Box(18)/Box(36)/Box(72)/
// Box(144) for 3/6/12/24 agents.
type CooperativeNavigation struct {
	world   *World
	n       int
	obsDims []int
	buf     stepBuffers
}

// NewCooperativeNavigation builds a spread scenario with n agents and n
// landmarks.
func NewCooperativeNavigation(n int) *CooperativeNavigation {
	if n < 1 {
		panic(fmt.Sprintf("mpe: need at least one agent, got %d", n))
	}
	c := &CooperativeNavigation{n: n}
	w := &World{}
	for i := 0; i < n; i++ {
		w.Agents = append(w.Agents, &Agent{
			Entity: Entity{
				Name: fmt.Sprintf("agent_%d", i), Size: 0.15, Mass: 1,
				Accel: 5.0, Movable: true, Collide: true,
			},
		})
	}
	for i := 0; i < n; i++ {
		w.Landmarks = append(w.Landmarks, &Entity{
			Name: fmt.Sprintf("landmark_%d", i), Size: 0.05, Collide: false,
		})
	}
	c.world = w
	c.obsDims = make([]int, n)
	for i := range c.obsDims {
		// self vel + self pos + landmark rel + other agents rel + comm.
		c.obsDims[i] = 4 + 2*n + 2*(n-1) + 2*(n-1)
	}
	c.buf = newStepBuffers(c.obsDims)
	return c
}

// Name implements Env.
func (c *CooperativeNavigation) Name() string { return "cooperative-navigation" }

// NumAgents implements Env.
func (c *CooperativeNavigation) NumAgents() int { return c.n }

// NumActions implements Env.
func (c *CooperativeNavigation) NumActions() int { return NumActions }

// ObsDims implements Env.
func (c *CooperativeNavigation) ObsDims() []int { return c.obsDims }

// Reset implements Env.
func (c *CooperativeNavigation) Reset(rng *rand.Rand) [][]float64 {
	for _, ag := range c.world.Agents {
		ag.Pos = randomPos(rng, 1)
		ag.Vel = Vec2{}
		ag.action = Vec2{}
	}
	for _, lm := range c.world.Landmarks {
		lm.Pos = randomPos(rng, 1)
	}
	return c.observations()
}

// Step implements Env.
func (c *CooperativeNavigation) Step(actions []int) ([][]float64, []float64) {
	if len(actions) != c.n {
		panic(fmt.Sprintf("mpe: CooperativeNavigation.Step got %d actions, want %d", len(actions), c.n))
	}
	for i, a := range actions {
		c.world.SetAction(i, a)
	}
	c.world.Step()
	return c.observations(), c.rewards()
}

// rewards returns the shared cooperative reward for every agent: the
// negative sum of landmark-to-closest-agent distances, with -1 per
// collision an agent is involved in.
func (c *CooperativeNavigation) rewards() []float64 {
	var shared float64
	for _, lm := range c.world.Landmarks {
		minDist := math.Inf(1)
		for _, ag := range c.world.Agents {
			if d := ag.Pos.Sub(lm.Pos).Norm(); d < minDist {
				minDist = d
			}
		}
		shared -= minDist
	}
	rw := c.buf.rew
	for i := range rw {
		rw[i] = shared
		for j, other := range c.world.Agents {
			if j != i && IsCollision(&c.world.Agents[i].Entity, &other.Entity) {
				rw[i]--
			}
		}
	}
	return rw
}

// observations builds [self_vel, self_pos, landmark_rel×N, other_rel×(N-1),
// comm×(N-1)] per agent; the comm channel is zero as in the reference
// simple_spread (agents are not given a learned communication medium).
func (c *CooperativeNavigation) observations() [][]float64 {
	obs := c.buf.nextObs()
	for i := 0; i < c.n; i++ {
		self := c.world.Agents[i]
		v := obs[i][:0]
		v = append(v, self.Vel.X, self.Vel.Y, self.Pos.X, self.Pos.Y)
		for _, lm := range c.world.Landmarks {
			rel := lm.Pos.Sub(self.Pos)
			v = append(v, rel.X, rel.Y)
		}
		for j, other := range c.world.Agents {
			if j == i {
				continue
			}
			rel := other.Pos.Sub(self.Pos)
			v = append(v, rel.X, rel.Y)
		}
		for j := 0; j < c.n-1; j++ { // zeroed communication channel
			v = append(v, 0, 0)
		}
		obs[i] = v
	}
	return obs
}
