package rollout

import (
	"fmt"

	"marlperf/internal/nn"
	"marlperf/internal/tensor"
)

// ActCore is the batched-forward heart of action selection, shared between
// the rollout engine (acting for training) and the serving gateway
// (internal/serve): per-agent observation matrices filled row by row, one
// batched forward per agent network, and a private copy of the logits.
//
// Determinism contract: every output row of a dense layer is computed with
// the same operation order at any batch size, so the logits for one
// observation are bit-identical whether it travels alone (rows=1) or
// coalesced into a larger batch — the property that makes micro-batched
// serving answers equal per-request answers, and vectorized rollouts equal
// single-env rollouts. Forward never touches an RNG.
//
// An ActCore is not safe for concurrent use; one goroutine (the engine's
// step loop, the gateway's batch loop) must own it.
type ActCore struct {
	obsDims []int
	actDim  int
	agents  []*nn.Network

	rows    int
	maxRows int
	obsMats []*tensor.Matrix // per agent: rows×obsDims[i], capacity maxRows
	logits  []*tensor.Matrix // per agent: rows×actDim copy of the forward output
	obsFull [][]float64      // full-capacity backing for obsMats
	lgFull  [][]float64      // full-capacity backing for logits
}

// NewActCore builds a core for the given per-agent observation widths and
// shared action width, able to batch up to maxRows observations per
// forward. No networks are bound yet; Forward panics until SetAgents.
func NewActCore(obsDims []int, actDim, maxRows int) *ActCore {
	bad := len(obsDims) == 0 || actDim <= 0 || maxRows <= 0
	for _, w := range obsDims {
		bad = bad || w < 1
	}
	if bad {
		panic(fmt.Sprintf("rollout: NewActCore(%v, %d, %d): need ≥1 agent, positive widths and capacity", obsDims, actDim, maxRows))
	}
	c := &ActCore{
		obsDims: append([]int(nil), obsDims...),
		actDim:  actDim,
		maxRows: maxRows,
		obsMats: make([]*tensor.Matrix, len(obsDims)),
		logits:  make([]*tensor.Matrix, len(obsDims)),
		obsFull: make([][]float64, len(obsDims)),
		lgFull:  make([][]float64, len(obsDims)),
	}
	for i, w := range obsDims {
		c.obsMats[i] = tensor.New(maxRows, w)
		c.logits[i] = tensor.New(maxRows, actDim)
		c.obsFull[i] = c.obsMats[i].Data
		c.lgFull[i] = c.logits[i].Data
	}
	c.rows = maxRows
	return c
}

// NumAgents returns the per-agent width count the core was built for.
func (c *ActCore) NumAgents() int { return len(c.obsDims) }

// ObsDims returns the per-agent observation widths.
func (c *ActCore) ObsDims() []int { return c.obsDims }

// MaxRows returns the batch capacity.
func (c *ActCore) MaxRows() int { return c.maxRows }

// SetAgents validates the networks' input/output widths against the core's
// dims and binds them for subsequent Forwards. The networks are used by
// reference — hot-swapping between Forwards is the policy-install path.
func (c *ActCore) SetAgents(agents []*nn.Network) error {
	if err := CheckAgents(agents, c.obsDims, c.actDim); err != nil {
		return err
	}
	c.agents = agents
	return nil
}

// Begin sizes the per-agent matrices for a batch of rows observations
// (1 ≤ rows ≤ MaxRows). Call before SetObs/Forward for each batch.
func (c *ActCore) Begin(rows int) {
	if rows < 1 || rows > c.MaxRows() {
		panic(fmt.Sprintf("rollout: ActCore.Begin(%d): capacity is %d", rows, c.MaxRows()))
	}
	c.rows = rows
	for i, w := range c.obsDims {
		c.obsMats[i].Rows = rows
		c.obsMats[i].Data = c.obsFull[i][:rows*w]
		c.logits[i].Rows = rows
		c.logits[i].Data = c.lgFull[i][:rows*c.actDim]
	}
}

// SetObs copies one agent's observation into batch row `row`.
func (c *ActCore) SetObs(row, agent int, obs []float64) {
	w := c.obsDims[agent]
	copy(c.obsMats[agent].Data[row*w:(row+1)*w], obs)
}

// Forward runs one batched forward per agent network over the rows set
// since Begin, copying each output into the core's private logits storage.
// The copy matters: Forward output is owned by the network's final layer,
// and nothing stops a caller binding one shared network for several agents.
func (c *ActCore) Forward() {
	if c.agents == nil {
		panic("rollout: ActCore.Forward before SetAgents")
	}
	for i, net := range c.agents {
		c.logits[i].CopyFrom(net.Forward(c.obsMats[i]))
	}
}

// Logits returns the batch-row view of one agent's logits from the last
// Forward. The slice aliases core storage — read it before the next Begin.
func (c *ActCore) Logits(agent, row int) []float64 {
	return c.logits[agent].Row(row)
}

// AgentLogits returns one agent's logits from the last Forward, a row per
// batch row. The matrix is core storage — read it before the next Begin.
func (c *ActCore) AgentLogits(agent int) *tensor.Matrix { return c.logits[agent] }

// NetworkDims derives the per-agent observation widths and the shared
// action width from the networks themselves (first dense layer in, last
// dense head out) — how a serving gateway learns the contract of a policy
// snapshot without access to the environment that trained it.
func NetworkDims(agents []*nn.Network) (obsDims []int, actDim int, err error) {
	if len(agents) == 0 {
		return nil, 0, fmt.Errorf("rollout: no agent networks")
	}
	obsDims = make([]int, len(agents))
	for i, net := range agents {
		if net == nil || len(net.Layers) == 0 {
			return nil, 0, fmt.Errorf("rollout: agent %d network is empty", i)
		}
		first, ok := net.Layers[0].(*nn.Dense)
		if !ok {
			return nil, 0, fmt.Errorf("rollout: agent %d network does not start with a dense layer", i)
		}
		last, ok := net.Layers[len(net.Layers)-1].(*nn.Dense)
		if !ok {
			return nil, 0, fmt.Errorf("rollout: agent %d network does not end with a dense head", i)
		}
		obsDims[i] = first.In()
		if i == 0 {
			actDim = last.Out()
		} else if last.Out() != actDim {
			return nil, 0, fmt.Errorf("rollout: agent %d network emits %d actions, agent 0 emits %d", i, last.Out(), actDim)
		}
	}
	return obsDims, actDim, nil
}

// CheckAgents verifies the networks' input/output widths, as NetworkDims
// reads them, against the given per-agent observation widths and action
// width — the validation both the rollout engine and the serving gateway
// run before installing a policy.
func CheckAgents(agents []*nn.Network, obsDims []int, actDim int) error {
	if len(agents) != len(obsDims) {
		return fmt.Errorf("rollout: policy has %d agents, want %d", len(agents), len(obsDims))
	}
	got, gotAct, err := NetworkDims(agents)
	if err != nil {
		return err
	}
	for i, d := range got {
		if d != obsDims[i] {
			return fmt.Errorf("rollout: agent %d network wants %d-dim obs, caller gives %d", i, d, obsDims[i])
		}
	}
	if gotAct != actDim {
		return fmt.Errorf("rollout: policy emits %d actions, caller wants %d", gotAct, actDim)
	}
	return nil
}
