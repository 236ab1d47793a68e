package mpe

import "math/rand"

// Env is the environment interface the trainers consume. Only trainable
// agents appear in the observation/reward vectors; scripted
// (environment-controlled) agents such as the prey act internally.
//
// Ownership: everything Reset and Step return is the environment's storage,
// not the caller's — a steady-state Step allocates nothing. The observation
// set one call returns stays intact across exactly the next Reset or Step
// (an actor packs the observations of step t beside those of step t+1) and
// is overwritten by the one after; the rewards are valid until the next
// call. A caller that needs either for longer copies them, and writes to
// neither. Environments share no storage with one another.
type Env interface {
	// Reset re-randomizes the world and returns the initial observation of
	// every trainable agent.
	Reset(rng *rand.Rand) [][]float64
	// Step applies one discrete action per trainable agent, advances the
	// world, and returns next observations and rewards.
	Step(actions []int) (obs [][]float64, rewards []float64)
	// NumAgents returns the number of trainable agents.
	NumAgents() int
	// ObsDims returns the observation width of each trainable agent.
	ObsDims() []int
	// NumActions returns the discrete action count (5 for particle envs).
	NumActions() int
	// Name identifies the scenario for reports.
	Name() string
}

// stepBuffers is the storage a scenario hands out of Reset and Step: two
// observation sets that take turns, so the set one call returned outlives
// the next call, and one reward vector.
type stepBuffers struct {
	obs  [2][][]float64
	last int // the set handed out by the latest call
	rew  []float64
}

func newStepBuffers(obsDims []int) stepBuffers {
	total := 0
	for _, d := range obsDims {
		total += d
	}
	b := stepBuffers{rew: make([]float64, len(obsDims))}
	for s := range b.obs {
		flat := make([]float64, total)
		b.obs[s] = make([][]float64, len(obsDims))
		off := 0
		for i, d := range obsDims {
			// Capped at its own width: an append beyond it would
			// reallocate, never run into the next agent's observation.
			b.obs[s][i] = flat[off : off+d : off+d]
			off += d
		}
	}
	return b
}

// nextObs returns the observation set to fill for the call in progress: the
// one the call before the latest handed out.
func (b *stepBuffers) nextObs() [][]float64 {
	b.last ^= 1
	return b.obs[b.last]
}
