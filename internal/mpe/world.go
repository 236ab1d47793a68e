// Package mpe implements the multi-agent particle environments the paper
// evaluates on (OpenAI multiagent-particle-envs): a 2D point-mass world with
// collision forces, and the Predator-Prey (competitive) and Cooperative
// Navigation (cooperative) scenarios with paper-matching observation layouts
// and a 5-action discrete action space.
package mpe

import (
	"math"
	"math/rand"
)

// Physics constants from the reference implementation.
const (
	dt            = 0.1   // integration timestep
	damping       = 0.25  // velocity damping per step
	contactForce  = 100.0 // collision spring constant
	contactMargin = 0.001 // softness of the contact boundary
)

// NumActions is the discrete action count: stay, right, left, up, down.
const NumActions = 5

// Vec2 is a 2D vector.
type Vec2 struct{ X, Y float64 }

// Add returns v + o.
func (v Vec2) Add(o Vec2) Vec2 { return Vec2{v.X + o.X, v.Y + o.Y} }

// Sub returns v - o.
func (v Vec2) Sub(o Vec2) Vec2 { return Vec2{v.X - o.X, v.Y - o.Y} }

// Scale returns s·v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{s * v.X, s * v.Y} }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Entity is a physical body in the world: an agent or a landmark.
type Entity struct {
	Name     string
	Pos      Vec2
	Vel      Vec2
	Size     float64 // collision radius
	Mass     float64
	MaxSpeed float64 // 0 means unlimited
	Accel    float64 // action force sensitivity
	Movable  bool
	Collide  bool
}

// Agent is a controllable (or scripted) entity.
type Agent struct {
	Entity
	Adversary bool // predator in the tag scenario
	Scripted  bool // environment-controlled (not trained)
	action    Vec2 // force applied this step
}

// World holds all entities and advances the physics.
type World struct {
	Agents    []*Agent
	Landmarks []*Entity

	forces []Vec2 // Step's per-agent force sums, kept between steps
}

// actionForce converts a discrete action index into a 2D unit direction.
// Index order matches the paper: static, right, left, up, down.
func actionForce(a int) Vec2 {
	switch a {
	case 0:
		return Vec2{0, 0}
	case 1:
		return Vec2{1, 0}
	case 2:
		return Vec2{-1, 0}
	case 3:
		return Vec2{0, 1}
	case 4:
		return Vec2{0, -1}
	default:
		return Vec2{0, 0}
	}
}

// SetAction records agent i's discrete action for the next Step.
func (w *World) SetAction(i, action int) {
	ag := w.Agents[i]
	ag.action = actionForce(action).Scale(ag.Accel)
}

// Step advances the world by one timestep: action forces plus pairwise
// collision forces, damped Euler integration, and per-agent speed caps.
func (w *World) Step() {
	if len(w.forces) != len(w.Agents) {
		w.forces = make([]Vec2, len(w.Agents))
	}
	forces := w.forces
	for i, ag := range w.Agents {
		forces[i] = ag.action
	}
	// Pairwise agent-agent collision forces.
	for i, a := range w.Agents {
		for j := i + 1; j < len(w.Agents); j++ {
			b := w.Agents[j]
			f := collisionForce(&a.Entity, &b.Entity)
			forces[i] = forces[i].Add(f)
			forces[j] = forces[j].Sub(f)
		}
	}
	// Agent-landmark collision forces (landmarks are immovable obstacles).
	for i, a := range w.Agents {
		for _, lm := range w.Landmarks {
			forces[i] = forces[i].Add(collisionForce(&a.Entity, lm))
		}
	}
	for i, ag := range w.Agents {
		if !ag.Movable {
			continue
		}
		ag.Vel = ag.Vel.Scale(1 - damping)
		ag.Vel = ag.Vel.Add(forces[i].Scale(dt / ag.Mass))
		if ag.MaxSpeed > 0 {
			if sp := ag.Vel.Norm(); sp > ag.MaxSpeed {
				ag.Vel = ag.Vel.Scale(ag.MaxSpeed / sp)
			}
		}
		ag.Pos = ag.Pos.Add(ag.Vel.Scale(dt))
	}
}

// collisionForce returns the soft-penetration spring force pushing a away
// from b, or zero if they do not collide.
func collisionForce(a, b *Entity) Vec2 {
	if !a.Collide || !b.Collide || a == b {
		return Vec2{}
	}
	delta := a.Pos.Sub(b.Pos)
	dist := delta.Norm()
	minDist := a.Size + b.Size
	if dist >= minDist+10*contactMargin {
		return Vec2{}
	}
	// Softmax-style penetration depth, as in the reference implementation.
	pen := math.Log(1+math.Exp(-(dist-minDist)/contactMargin)) * contactMargin
	if dist < 1e-9 {
		// Coincident entities: push in a fixed direction to break symmetry.
		return Vec2{contactForce * pen, 0}
	}
	return delta.Scale(contactForce * pen / dist)
}

// IsCollision reports whether two entities overlap.
func IsCollision(a, b *Entity) bool {
	if a == b {
		return false
	}
	return a.Pos.Sub(b.Pos).Norm() < a.Size+b.Size
}

// randomPos returns a uniform position in [-lim, lim]².
func randomPos(rng *rand.Rand, lim float64) Vec2 {
	return Vec2{rng.Float64()*2*lim - lim, rng.Float64()*2*lim - lim}
}
