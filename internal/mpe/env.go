package mpe

import "math/rand"

// Env is the environment interface the trainers consume. Only trainable
// agents appear in the observation/reward vectors; scripted
// (environment-controlled) agents such as the prey act internally.
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
