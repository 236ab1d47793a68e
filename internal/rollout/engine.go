// Package rollout is the acting half of the distributed MARL loop: a
// vectorized engine that steps B environments per actor process with batched
// forward passes through the acting networks, amortizing per-step dispatch
// the same way the update engine batches training work.
//
// Determinism contract: every environment owns an RNG stream derived from
// the run seed and its global environment index (see EnvSeed), consumed in a
// fixed per-env order — Gumbel exploration draws agent-by-agent, then the
// environment's own internal draws during Step. The batched engine draws
// agent-major (agent 0's noise for every env, then agent 1's, …), which no
// stream can tell from env-major: each sees its own agents in order, and
// nothing of another env's. Batched forwards never touch an RNG and each
// output row of a dense layer is computed with the same operation order at
// any batch size, so a B-env engine produces trajectories bit-identical to B
// single-env engines running the same global indices — the property
// TestVectorizedMatchesSingleEnv pins down, and TestRolloutGoldenTrajectories
// holds to CRCs recorded before the draw was batched.
package rollout

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"marlperf/internal/mpe"
	"marlperf/internal/nn"
	"marlperf/internal/profiler"
	"marlperf/internal/replay"
	"marlperf/internal/telemetry"
	"marlperf/internal/tensor"
	"marlperf/internal/trace"
)

// envStreamPrime spaces the per-env RNG streams derived from the run seed.
// Deliberately distinct from core's agentStreamPrime so an actor and a
// learner sharing one run seed never collide streams.
const envStreamPrime = 998_244_353

// EnvSeed derives the RNG stream seed for the environment with the given
// global index (FirstEnvIndex+local slot) from the run seed.
func EnvSeed(seed int64, globalIdx int) int64 {
	return seed ^ int64(globalIdx+1)*envStreamPrime
}

// Config describes a rollout engine.
type Config struct {
	// NewEnv constructs one environment instance. Required; called Envs
	// times, so instances must be independent.
	NewEnv func() mpe.Env
	// Envs is the number of environments stepped per Step call (B).
	// Defaults to 1.
	Envs int
	// FirstEnvIndex is the global index of this engine's first environment.
	// Actor k of a fleet running E envs each passes k·E so every env in the
	// fleet draws from a distinct RNG stream.
	FirstEnvIndex int
	// Seed is the run seed the per-env streams derive from.
	Seed int64
	// GumbelTau is the exploration temperature. Defaults to 1.0.
	GumbelTau float64
	// MaxEpisodeLen caps episodes (the paper uses 25). Defaults to 25.
	MaxEpisodeLen int
	// PerEnvForward disables batched acting: every env forwards its own
	// 1-row batch. Trajectories are identical either way (forwards consume
	// no randomness); this is the baseline BenchmarkRolloutVec compares
	// against.
	PerEnvForward bool
	// Sink, when non-nil, receives every transition in (step, env) order.
	Sink replay.TransitionSink
	// Registry, when non-nil, receives marl_rollout_* and marl_policy_*
	// actor-side metrics.
	Registry *telemetry.Registry
	// Tracer, when set and enabled, opens a sampled root span per Step call
	// (trace ID derived from Seed and the step index, so actor traces are
	// reproducible across runs) with phase child spans, and sets the active
	// context so the sink's append RPC joins the step's trace. Tracing draws
	// no randomness and never touches trajectory bytes.
	Tracer *trace.Tracer
}

// Engine steps B environments under one acting policy. It is not safe for
// concurrent use: Install and Step must come from one goroutine (the actor
// loop), which is exactly what makes a policy hot-swap between steps torn-
// read-free — the networks swap whole, never mid-forward.
type Engine struct {
	cfg     Config
	n       int
	obsDims []int
	actDim  int

	envs []mpe.Env
	rngs []*rand.Rand

	agents   []*nn.Network
	version  uint64
	knownVer uint64 // newest policy version seen (installed or not)

	// obs and nextObs are the envs' own storage (mpe.Env): the set a Reset
	// or Step returned stays intact across exactly the next call on that
	// env, which is as long as a step keeps it.
	obs     [][][]float64 // [env][agent][obsDim]
	nextObs [][][]float64 // [env], from this step's env.Step
	rewards [][]float64   // [env][agent], likewise
	epStep  []int
	epRew   []float64
	lastRew float64
	steps   uint64

	prof      *profiler.Profile
	tracer    *trace.Tracer
	stepCalls uint64 // Step invocations (trace sampling index)

	// Acting scratch.
	core      *ActCore         // batched per-agent forwards
	obsRow    *tensor.Matrix   // header rebound per (env, agent) in per-env mode
	probsMat  []*tensor.Matrix // per agent: envs×actDim, one block of exploration draws
	probs     [][][]float64    // [env][agent]: row env of probsMat[agent]
	actionIdx [][]int          // [env][agent]
	dones     [][]float64      // [env][agent]

	stepsC    *telemetry.Counter
	episodesC *telemetry.Counter
	installsC *telemetry.Counter
	actingG   *telemetry.Gauge
	staleG    *telemetry.Gauge
	actLagH   *telemetry.Histogram
}

// actLagBuckets bounds the act-time version-lag histogram: how many policy
// versions behind the newest-known one the engine was acting on, observed
// once per Step call. Power-of-two-ish buckets because a healthy loop sits
// at 0-1 and a stalled syncer grows geometrically.
func actLagBuckets() []float64 {
	return []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}
}

// NewEngine validates cfg, constructs the B environments, seeds their RNG
// streams, and resets each one. No policy is installed yet; Step fails until
// the first Install.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.NewEnv == nil {
		return nil, fmt.Errorf("rollout: Config.NewEnv is required")
	}
	if cfg.Envs <= 0 {
		cfg.Envs = 1
	}
	if cfg.FirstEnvIndex < 0 {
		return nil, fmt.Errorf("rollout: negative FirstEnvIndex %d", cfg.FirstEnvIndex)
	}
	if cfg.GumbelTau <= 0 {
		cfg.GumbelTau = 1.0
	}
	if cfg.MaxEpisodeLen <= 0 {
		cfg.MaxEpisodeLen = 25
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	e := &Engine{
		cfg:       cfg,
		prof:      &profiler.Profile{},
		tracer:    cfg.Tracer,
		stepsC:    reg.Counter("marl_rollout_env_steps_total"),
		episodesC: reg.Counter("marl_rollout_episodes_total"),
		installsC: reg.Counter("marl_policy_installs_total"),
		actingG:   reg.Gauge("marl_policy_acting_version"),
		staleG:    reg.Gauge("marl_policy_staleness_versions"),
		actLagH:   reg.Histogram("marl_policy_act_lag_versions", actLagBuckets()),
	}
	reg.SetHelp("marl_rollout_env_steps_total", "Environment steps taken across all vectorized envs.")
	reg.SetHelp("marl_policy_staleness_versions", "Versions the acting policy lags the newest one this actor has seen.")
	reg.SetHelp("marl_policy_act_lag_versions", "Per-Step histogram of how many versions behind the newest-known policy the engine acted.")

	b := cfg.Envs
	e.envs = make([]mpe.Env, b)
	e.rngs = make([]*rand.Rand, b)
	e.obs = make([][][]float64, b)
	for i := 0; i < b; i++ {
		e.envs[i] = cfg.NewEnv()
		e.rngs[i] = rand.New(rand.NewSource(EnvSeed(cfg.Seed, cfg.FirstEnvIndex+i)))
	}
	e.n = e.envs[0].NumAgents()
	e.obsDims = e.envs[0].ObsDims()
	e.actDim = e.envs[0].NumActions()
	for i, env := range e.envs {
		if env.NumAgents() != e.n || env.NumActions() != e.actDim {
			return nil, fmt.Errorf("rollout: env %d disagrees on agent/action counts", i)
		}
		e.obs[i] = env.Reset(e.rngs[i])
	}

	e.nextObs = make([][][]float64, b)
	e.rewards = make([][]float64, b)
	e.epStep = make([]int, b)
	e.epRew = make([]float64, b)
	e.core = NewActCore(e.obsDims, e.actDim, b)
	e.obsRow = tensor.New(1, 0)
	e.probsMat = make([]*tensor.Matrix, e.n)
	for i := range e.probsMat {
		e.probsMat[i] = tensor.New(b, e.actDim)
	}
	e.probs = make([][][]float64, b)
	e.actionIdx = make([][]int, b)
	e.dones = make([][]float64, b)
	for env := 0; env < b; env++ {
		e.probs[env] = make([][]float64, e.n)
		for i := 0; i < e.n; i++ {
			e.probs[env][i] = e.probsMat[i].Row(env)
		}
		e.actionIdx[env] = make([]int, e.n)
		e.dones[env] = make([]float64, e.n)
	}
	return e, nil
}

// Install hot-swaps the acting policy. version is the policysync serving
// version (informational; shows up in metrics and PolicyVersion). Call only
// between Step calls — the engine is single-goroutine by contract, so the
// swap can never tear a forward pass.
func (e *Engine) Install(version uint64, agents []*nn.Network) error {
	return e.InstallCtx(version, agents, trace.Context{})
}

// InstallCtx is Install carrying the trace position the snapshot's delivery
// descended from (Snapshot.TraceCtx). A valid context records a
// "policy-install" span parented on the fetch — the final hop of the
// learner update → policyd publish → actor hot-swap chain. A zero context
// records nothing.
func (e *Engine) InstallCtx(version uint64, agents []*nn.Network, tctx trace.Context) error {
	sp := e.tracer.StartSpan(tctx, "policy-install")
	if err := e.core.SetAgents(agents); err != nil {
		sp.EndArg("error", 1)
		return err
	}
	e.agents = agents
	e.version = version
	if version > e.knownVer {
		e.knownVer = version
	}
	e.installsC.Inc()
	e.actingG.Set(float64(version))
	e.staleG.Set(0)
	sp.EndArg("version", int64(version))
	return nil
}

// NoteKnownVersion records the newest policy version this actor has seen
// (installed or not), updating the staleness gauge. The actor loop calls it
// before every Step, so "how far behind am I acting" is always observable,
// between installs too.
func (e *Engine) NoteKnownVersion(latest uint64) {
	if latest > e.knownVer {
		e.knownVer = latest
	}
	if latest > e.version {
		e.staleG.Set(float64(latest - e.version))
	} else {
		e.staleG.Set(0)
	}
}

// PolicyVersion returns the serving version of the acting policy (0 before
// the first Install).
func (e *Engine) PolicyVersion() uint64 { return e.version }

// TotalSteps returns env-steps taken, summed across the vector (one Step
// call advances Envs of them).
func (e *Engine) TotalSteps() uint64 { return e.steps }

// LastEpisodeReward returns the mean-over-agents summed reward of the most
// recently completed episode (any env).
func (e *Engine) LastEpisodeReward() float64 { return e.lastRew }

// Profile returns the engine's phase-timing profile.
func (e *Engine) Profile() *profiler.Profile { return e.prof }

// NumAgents returns the trainable-agent count of the wrapped envs.
func (e *Engine) NumAgents() int { return e.n }

func finiteSlice(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// act fills probs/actionIdx for every (env, agent). Batched, it runs agent
// by agent: one forward over all envs' observations, one block of Gumbel
// draws — row env from env's stream — whose logarithms go through
// tensor.Log a vector at a time, then each row's action. PerEnvForward is
// the row-wise, scalar oracle of the same thing, env-major: each stream sees
// the same sequence either way (agent 0's draws, its sanitising Intn if any,
// agent 1's draws, …), which is the sequence a single-env engine produces.
func (e *Engine) act() {
	b := e.cfg.Envs
	if e.cfg.PerEnvForward {
		for env := 0; env < b; env++ {
			for i := 0; i < e.n; i++ {
				row := e.obsRow
				row.Rows, row.Cols, row.Data = 1, e.obsDims[i], e.obs[env][i]
				out := e.agents[i].Forward(row)
				nn.GumbelSoftmaxRow(e.probs[env][i], out.Row(0), e.cfg.GumbelTau, e.rngs[env])
				e.pickAction(env, i)
			}
		}
		return
	}
	e.core.Begin(b)
	for env := 0; env < b; env++ {
		for i := 0; i < e.n; i++ {
			e.core.SetObs(env, i, e.obs[env][i])
		}
	}
	e.core.Forward()
	for i := 0; i < e.n; i++ {
		nn.GumbelSoftmaxRows(e.probsMat[i], e.core.AgentLogits(i), e.cfg.GumbelTau, e.rngs)
		for env := 0; env < b; env++ {
			e.pickAction(env, i)
		}
	}
}

// envSpan reads the edge that ends env's share of phase p on a sampled step,
// records that share as a span of p from start, and returns the edge: the
// start of the next env's share.
func (e *Engine) envSpan(tctx trace.Context, p profiler.Phase, env int, start time.Time) time.Time {
	end := time.Now()
	e.tracer.RecordSpan(tctx, p.String(), start, end, "env", int64(e.cfg.FirstEnvIndex+env))
	return end
}

// pickAction turns one agent's exploration probs into a discrete action,
// mirroring the trainer's interact: the argmax, or a uniform fallback when a
// diverged policy emitted non-finite values (a poisoned row must never reach
// the replay service).
func (e *Engine) pickAction(env, agent int) {
	probs := e.probs[env][agent]
	if !finiteSlice(probs) {
		uniform := 1 / float64(e.actDim)
		for k := range probs {
			probs[k] = uniform
		}
		e.actionIdx[env][agent] = e.rngs[env].Intn(e.actDim)
		e.prof.Event(profiler.EventActionSanitized, 1)
		return
	}
	e.actionIdx[env][agent] = tensor.ArgMax(probs)
}

// Step advances every environment by one step: batched action selection,
// B environment transitions, B replay appends, episode bookkeeping. It
// returns how many episodes completed on this step (0..Envs). A policy must
// have been installed.
//
// The step runs as passes over the envs — act, step them all, add all their
// rows in env order, then close episodes and reset — so the three profiler
// phases are timed once per call, on four clock reads (adjacent phases share
// an edge), and a step allocates nothing. A sampled step records each
// phase's spans from the same reads: one action-selection span, and per env
// an env-step and a replay-add span on edges read per env, which tile their
// phase exactly. The envs share no state and each draws from its own stream,
// so the order of passes is invisible in the trajectories. A sink error ends
// the call between passes — every env has stepped, no episode is closed —
// and the engine is not stepped again: the actor exits on it.
func (e *Engine) Step() (int, error) {
	if e.agents == nil {
		return 0, fmt.Errorf("rollout: Step before any policy was installed")
	}
	b := e.cfg.Envs

	// Sampled steps open a deterministic root trace and park it as the
	// active context so the sink's append RPC (which may fire from inside
	// Sink.Add when a batch fills) joins this step's trace. Unsampled steps
	// clear it so a stale context never leaks into a later flush.
	e.stepCalls++
	var stepSpan trace.Span
	if e.tracer.Sampled(e.stepCalls) {
		tid := trace.DeriveTraceID(uint64(e.cfg.Seed), trace.KindStep, e.stepCalls)
		stepSpan = e.tracer.StartTrace(tid, "step")
		e.tracer.SetActive(stepSpan.Context())
	} else if e.tracer.Enabled() {
		e.tracer.ClearActive()
	}
	// Act-time version lag: how far behind the newest-known policy this
	// step's actions are drawn. Observed per Step call, not per env-step.
	if lag := e.knownVer; lag > e.version {
		e.actLagH.Observe(float64(lag - e.version))
	} else {
		e.actLagH.Observe(0)
	}

	tctx := stepSpan.Context()
	start := time.Now()
	e.act()
	acted := time.Now()
	e.prof.Add(profiler.PhaseActionSelection, acted.Sub(start))
	e.tracer.RecordSpan(tctx, profiler.PhaseActionSelection.String(), start, acted, "envs", int64(b))

	// On a sampled step each env's edge is read as it finishes, and the
	// last one is the phase's end; an unsampled step reads only that end.
	stepped := acted
	for env := 0; env < b; env++ {
		e.nextObs[env], e.rewards[env] = e.envs[env].Step(e.actionIdx[env])

		e.epStep[env]++
		flag := 0.0
		if e.epStep[env] >= e.cfg.MaxEpisodeLen {
			flag = 1
		}
		for i := range e.dones[env] {
			e.dones[env][i] = flag
		}
		if tctx.Valid() {
			stepped = e.envSpan(tctx, profiler.PhaseEnvStep, env, stepped)
		}
	}
	if !tctx.Valid() {
		stepped = time.Now()
	}
	e.prof.Add(profiler.PhaseEnvStep, stepped.Sub(acted))

	if e.cfg.Sink != nil {
		added := stepped
		for env := 0; env < b; env++ {
			err := e.cfg.Sink.Add(e.obs[env], e.probs[env], e.rewards[env], e.nextObs[env], e.dones[env])
			if tctx.Valid() {
				added = e.envSpan(tctx, profiler.PhaseReplayAdd, env, added)
			}
			if err != nil {
				return 0, fmt.Errorf("rollout: env %d replay add: %w", e.cfg.FirstEnvIndex+env, err)
			}
		}
		if !tctx.Valid() {
			added = time.Now()
		}
		e.prof.Add(profiler.PhaseReplayAdd, added.Sub(stepped))
	}

	completed := 0
	for env := 0; env < b; env++ {
		var meanRew float64
		for _, r := range e.rewards[env] {
			meanRew += r
		}
		e.epRew[env] += meanRew / float64(e.n)

		if e.epStep[env] < e.cfg.MaxEpisodeLen {
			e.obs[env] = e.nextObs[env]
			continue
		}
		completed++
		e.episodesC.Inc()
		e.lastRew = e.epRew[env]
		e.epRew[env] = 0
		e.epStep[env] = 0
		e.obs[env] = e.envs[env].Reset(e.rngs[env])
	}
	e.steps += uint64(b)
	e.stepsC.Add(uint64(b))
	// The active context is left set on purpose: a sink that buffers this
	// step's transitions may flush them (append RPC) after Step returns,
	// and the fallback root in the remote sink covers the unsampled case.
	stepSpan.EndArg("steps", int64(e.steps))
	return completed, nil
}
