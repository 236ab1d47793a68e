package core

import (
	"math/rand"

	"marlperf/internal/nn"
)

// agentNets bundles one agent's four (MADDPG) or six (MATD3) networks and
// their optimizers: a decentralized actor over its own observation and a
// centralized critic over the joint observation-action space, each with a
// target copy for stable learning. MATD3 adds a twin critic pair.
type agentNets struct {
	actor       *nn.Network
	targetActor *nn.Network
	actorOpt    *nn.Adam

	critic1       *nn.Network
	targetCritic1 *nn.Network
	critic1Opt    *nn.Adam

	// Twin critic, nil unless the algorithm is MATD3.
	critic2       *nn.Network
	targetCritic2 *nn.Network
	critic2Opt    *nn.Adam
}

// newAgentNets builds the network set for one agent. obsDim is the agent's
// own observation width; jointDim is Σ obs widths + N·actDim, the critic's
// centralized input.
func newAgentNets(cfg Config, obsDim, actDim, jointDim int, rng *rand.Rand) *agentNets {
	h := cfg.HiddenSize
	a := &agentNets{
		actor:         nn.NewMLP(rng, obsDim, h, h, actDim),
		targetActor:   nn.NewMLP(rng, obsDim, h, h, actDim),
		critic1:       nn.NewMLP(rng, jointDim, h, h, 1),
		targetCritic1: nn.NewMLP(rng, jointDim, h, h, 1),
	}
	nn.HardCopy(a.targetActor, a.actor)
	nn.HardCopy(a.targetCritic1, a.critic1)
	a.actorOpt = nn.NewAdam(a.actor, cfg.LR)
	a.critic1Opt = nn.NewAdam(a.critic1, cfg.LR)
	if cfg.Algorithm == MATD3 {
		a.critic2 = nn.NewMLP(rng, jointDim, h, h, 1)
		a.targetCritic2 = nn.NewMLP(rng, jointDim, h, h, 1)
		nn.HardCopy(a.targetCritic2, a.critic2)
		a.critic2Opt = nn.NewAdam(a.critic2, cfg.LR)
	}
	return a
}

// namedNet is one of an agent's networks, or one with its optimizer, under
// the name errors give it.
type namedNet struct {
	name string
	net  *nn.Network
	opt  **nn.Adam
}

// networks lists the agent's networks in checkpoint order: actor, target
// actor, critic1, target critic1 and, for MATD3, critic2 and target critic2.
func (a *agentNets) networks() []namedNet {
	nets := []namedNet{
		{name: "actor", net: a.actor}, {name: "target actor", net: a.targetActor},
		{name: "critic1", net: a.critic1}, {name: "target critic1", net: a.targetCritic1},
	}
	if a.critic2 != nil {
		nets = append(nets, namedNet{name: "critic2", net: a.critic2}, namedNet{name: "target critic2", net: a.targetCritic2})
	}
	return nets
}

// optimizers lists the agent's trained networks with their optimizers, in
// checkpoint order: actor, critic1 and, for MATD3, critic2.
func (a *agentNets) optimizers() []namedNet {
	opts := []namedNet{{"actor", a.actor, &a.actorOpt}, {"critic1", a.critic1, &a.critic1Opt}}
	if a.critic2 != nil {
		opts = append(opts, namedNet{"critic2", a.critic2, &a.critic2Opt})
	}
	return opts
}

// softUpdateTargets applies the Polyak update to all target networks.
func (a *agentNets) softUpdateTargets(tau float64) {
	nn.SoftUpdate(a.targetActor, a.actor, tau)
	nn.SoftUpdate(a.targetCritic1, a.critic1, tau)
	if a.critic2 != nil {
		nn.SoftUpdate(a.targetCritic2, a.critic2, tau)
	}
}
