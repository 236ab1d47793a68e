package mpe

import (
	"fmt"
	"math"
	"math/rand"
)

// PredatorPrey is the competitive tag scenario: N slow predators (the
// trainable agents) chase M fast, environment-controlled prey around L
// landmark obstacles. The paper trains 3/6/12/24 predators with prey and
// landmark counts scaling alongside (3 predators + 1 prey with 2 landmarks
// gives the paper's Box(16)/Box(14) observation spaces; 24 predators +
// 8 prey with 8 landmarks gives Box(98)/Box(96)).
type PredatorPrey struct {
	world        *World
	numPredators int
	numPrey      int
	numLandmarks int
	obsDims      []int
	rng          *rand.Rand
	buf          stepBuffers
}

// PreyCountFor returns the scaled prey count for n predators, following the
// paper's configurations (1 prey at 3 predators, 8 prey at 24 predators):
// one prey per three predators, minimum one.
func PreyCountFor(nPredators int) int {
	m := nPredators / 3
	if m < 1 {
		m = 1
	}
	return m
}

// LandmarkCountFor returns the obstacle count for n predators. The paper's
// observation dims pin 2 landmarks at 3 predators and 8 at 24; we
// interpolate with 2 + 2·log2(n/3), giving 2/4/6/8 for 3/6/12/24.
func LandmarkCountFor(nPredators int) int {
	if nPredators <= 3 {
		return 2
	}
	return 2 + 2*int(math.Round(math.Log2(float64(nPredators)/3)))
}

// NewPredatorPrey builds a tag scenario with nPredators trainable predators
// and paper-scaled prey/landmark counts.
func NewPredatorPrey(nPredators int) *PredatorPrey {
	if nPredators < 1 {
		panic(fmt.Sprintf("mpe: need at least one predator, got %d", nPredators))
	}
	return NewPredatorPreyCustom(nPredators, PreyCountFor(nPredators), LandmarkCountFor(nPredators))
}

// NewPredatorPreyCustom builds a tag scenario with explicit prey and
// landmark counts.
func NewPredatorPreyCustom(nPredators, nPrey, nLandmarks int) *PredatorPrey {
	p := &PredatorPrey{
		numPredators: nPredators,
		numPrey:      nPrey,
		numLandmarks: nLandmarks,
	}
	w := &World{}
	for i := 0; i < nPredators; i++ {
		w.Agents = append(w.Agents, &Agent{
			Entity: Entity{
				Name: fmt.Sprintf("predator_%d", i), Size: 0.075, Mass: 1,
				MaxSpeed: 1.0, Accel: 3.0, Movable: true, Collide: true,
			},
			Adversary: true,
		})
	}
	for i := 0; i < nPrey; i++ {
		w.Agents = append(w.Agents, &Agent{
			Entity: Entity{
				Name: fmt.Sprintf("prey_%d", i), Size: 0.05, Mass: 1,
				MaxSpeed: 1.3, Accel: 4.0, Movable: true, Collide: true,
			},
			Scripted: true,
		})
	}
	for i := 0; i < nLandmarks; i++ {
		w.Landmarks = append(w.Landmarks, &Entity{
			Name: fmt.Sprintf("landmark_%d", i), Size: 0.2, Collide: true,
		})
	}
	p.world = w
	p.obsDims = make([]int, nPredators)
	total := nPredators + nPrey
	for i := range p.obsDims {
		// self vel + self pos + landmark rel + other agents rel + prey vels.
		p.obsDims[i] = 4 + 2*nLandmarks + 2*(total-1) + 2*nPrey
	}
	p.buf = newStepBuffers(p.obsDims)
	return p
}

// Name implements Env.
func (p *PredatorPrey) Name() string { return "predator-prey" }

// NumAgents implements Env: only predators are trainable.
func (p *PredatorPrey) NumAgents() int { return p.numPredators }

// NumActions implements Env.
func (p *PredatorPrey) NumActions() int { return NumActions }

// ObsDims implements Env.
func (p *PredatorPrey) ObsDims() []int { return p.obsDims }

// Reset implements Env.
func (p *PredatorPrey) Reset(rng *rand.Rand) [][]float64 {
	p.rng = rng
	for _, ag := range p.world.Agents {
		ag.Pos = randomPos(rng, 1)
		ag.Vel = Vec2{}
		ag.action = Vec2{}
	}
	for _, lm := range p.world.Landmarks {
		lm.Pos = randomPos(rng, 0.9)
	}
	return p.observations()
}

// Step implements Env.
func (p *PredatorPrey) Step(actions []int) ([][]float64, []float64) {
	if len(actions) != p.numPredators {
		panic(fmt.Sprintf("mpe: PredatorPrey.Step got %d actions, want %d", len(actions), p.numPredators))
	}
	for i, a := range actions {
		p.world.SetAction(i, a)
	}
	// Scripted prey flee from the nearest predator.
	for pi := 0; pi < p.numPrey; pi++ {
		idx := p.numPredators + pi
		p.world.SetAction(idx, p.preyPolicy(p.world.Agents[idx]))
	}
	p.world.Step()
	return p.observations(), p.rewards()
}

// preyPolicy picks the discrete action that best increases distance from the
// nearest predator, with a small chance of random motion to avoid corners.
func (p *PredatorPrey) preyPolicy(prey *Agent) int {
	if p.rng != nil && p.rng.Float64() < 0.1 {
		return p.rng.Intn(NumActions)
	}
	var nearest *Agent
	best := math.Inf(1)
	for i := 0; i < p.numPredators; i++ {
		d := prey.Pos.Sub(p.world.Agents[i].Pos).Norm()
		if d < best {
			best = d
			nearest = p.world.Agents[i]
		}
	}
	if nearest == nil {
		return 0
	}
	away := prey.Pos.Sub(nearest.Pos)
	// Soft wall: bias back toward the arena when out of bounds. The factor
	// must exceed 1 so the wall always overcomes the flee vector (which has
	// at most unit-per-unit growth in the same direction).
	const wallGain = 3
	if prey.Pos.X > 1 {
		away.X -= wallGain * (prey.Pos.X - 1)
	}
	if prey.Pos.X < -1 {
		away.X -= wallGain * (prey.Pos.X + 1)
	}
	if prey.Pos.Y > 1 {
		away.Y -= wallGain * (prey.Pos.Y - 1)
	}
	if prey.Pos.Y < -1 {
		away.Y -= wallGain * (prey.Pos.Y + 1)
	}
	bestAction, bestDot := 0, math.Inf(-1)
	for a := 1; a < NumActions; a++ {
		f := actionForce(a)
		dot := f.X*away.X + f.Y*away.Y
		if dot > bestDot {
			bestDot = dot
			bestAction = a
		}
	}
	return bestAction
}

// rewards computes per-predator rewards: +10 per prey collision, minus a
// shaping term proportional to distance from the nearest prey (the standard
// shaped simple_tag adversary reward).
func (p *PredatorPrey) rewards() []float64 {
	rw := p.buf.rew
	for i := 0; i < p.numPredators; i++ {
		rw[i] = 0
		pred := p.world.Agents[i]
		minDist := math.Inf(1)
		for pi := 0; pi < p.numPrey; pi++ {
			prey := p.world.Agents[p.numPredators+pi]
			// One distance serves both terms; the second is IsCollision.
			d := pred.Pos.Sub(prey.Pos).Norm()
			if d < minDist {
				minDist = d
			}
			if d < pred.Size+prey.Size {
				rw[i] += 10
			}
		}
		if !math.IsInf(minDist, 1) {
			rw[i] -= 0.1 * minDist
		}
	}
	return rw
}

// observations builds the paper-matching observation vector for each
// predator: [self_vel, self_pos, landmark_rel×L, other_rel×(T-1),
// prey_vel×M].
func (p *PredatorPrey) observations() [][]float64 {
	obs := p.buf.nextObs()
	for i := 0; i < p.numPredators; i++ {
		self := p.world.Agents[i]
		v := obs[i][:0]
		v = append(v, self.Vel.X, self.Vel.Y, self.Pos.X, self.Pos.Y)
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
		for pi := 0; pi < p.numPrey; pi++ {
			prey := p.world.Agents[p.numPredators+pi]
			v = append(v, prey.Vel.X, prey.Vel.Y)
		}
		obs[i] = v
	}
	return obs
}
