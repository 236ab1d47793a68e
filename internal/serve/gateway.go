// Package serve is the action gateway the repository benchmark's
// loop-lockstep workload drives: observations in over HTTP, one greedy
// action per agent out, answered from the newest installed policy snapshot.
// No training process uses it — actors act inside their own rollout.Engine
// — so the package keeps only what bench/ builds against, and goes when
// bench/ drops its /act leg.
//
// Each request runs its own one-row forward through rollout.ActCore in the
// caller's goroutine, under the gateway's mutex; the answer is the argmax of
// each agent network's logits on the installed weights.
package serve

import (
	"fmt"
	"sync"
	"time"

	"marlperf/internal/nn"
	"marlperf/internal/rollout"
	"marlperf/internal/tensor"
	"marlperf/internal/trace"
)

// Config describes a gateway.
type Config struct {
	// Window is read by nothing. It is kept only because bench/ names it
	// (serve.Config{Window: 0}): a gateway forwards each request as it
	// arrives, so there is no batch to hold open.
	Window time.Duration
}

// ErrNotReady is returned before the first snapshot install.
var ErrNotReady = fmt.Errorf("serve: no policy installed yet")

// Result is one served action vector.
type Result struct {
	// Actions holds one greedy (argmax) action index per agent.
	Actions []int
	// Version is the snapshot version that produced the actions.
	Version uint64
}

// Gateway serves the newest installed snapshot. Safe for concurrent use:
// installs and forwards take turns on one mutex.
type Gateway struct {
	mu      sync.Mutex
	version uint64           // 0 until the first install
	core    *rollout.ActCore // nil until the first install fixes the serving shape; bound to the head's networks
}

// NewGateway returns an empty gateway; Act answers ErrNotReady until the
// first Install.
func NewGateway(Config) *Gateway { return &Gateway{} }

// Install makes the given snapshot the serving head. The first install
// fixes the serving shape; later ones must match it, and one with a version
// not newer than the head is ignored (a re-delivery). The networks are taken
// by reference and must not be mutated afterwards. updates and the trace
// context are not read: the arguments are kept only because bench/ passes
// them.
func (g *Gateway) Install(version, updates uint64, agents []*nn.Network, _ trace.Context) error {
	obsDims, actDim, err := rollout.NetworkDims(agents)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.core == nil {
		g.core = rollout.NewActCore(obsDims, actDim, 1)
	} else if version <= g.version {
		return nil
	}
	if err := g.core.SetAgents(agents); err != nil {
		return fmt.Errorf("serve: snapshot v%d does not match the serving shape: %w", version, err)
	}
	g.version = version
	return nil
}

// Dims returns the serving observation widths (nil before the first
// install).
func (g *Gateway) Dims() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.core == nil {
		return nil
	}
	return g.core.ObsDims()
}

// Versions returns the head version (0 before the first install). The
// second result is always 0: it is kept only because bench/ names it.
func (g *Gateway) Versions() (head, prev uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.version, 0
}

// Act answers one observation set from the head snapshot. obs must hold one
// row per agent at the serving widths. The leading argument is not read: it
// is kept only because bench/ passes it (0).
func (g *Gateway) Act(_ uint64, obs [][]float64) (Result, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.core == nil {
		return Result{}, ErrNotReady
	}
	dims := g.core.ObsDims()
	if len(obs) != len(dims) {
		return Result{}, fmt.Errorf("serve: request has %d agent observations, policy serves %d agents", len(obs), len(dims))
	}
	for i, row := range obs {
		if len(row) != dims[i] {
			return Result{}, fmt.Errorf("serve: agent %d observation has %d dims, policy wants %d", i, len(row), dims[i])
		}
	}
	g.core.Begin(1)
	for a, row := range obs {
		g.core.SetObs(0, a, row)
	}
	g.core.Forward()
	actions := make([]int, len(obs))
	for a := range actions {
		actions[a] = tensor.ArgMax(g.core.Logits(a, 0))
	}
	return Result{Actions: actions, Version: g.version}, nil
}

// Drain returns nil: a gateway holds no goroutine or queue to stop. It is
// kept only because bench/ calls it when it closes the loop.
func (g *Gateway) Drain(time.Duration) error { return nil }
