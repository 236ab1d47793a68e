package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"marlperf/internal/mpe"
	"marlperf/internal/nn"
	"marlperf/internal/profiler"
	"marlperf/internal/replay"
	"marlperf/internal/tensor"
	"marlperf/internal/trace"
)

// Trainer runs the CTDE training loop of Figure 1: per-step action
// selection through the decentralized actors, environment interaction,
// replay storage, and the periodic "update all trainers" stage (mini-batch
// sampling, target-Q calculation, Q-loss/P-loss backpropagation) whose
// phases are individually timed.
//
// The update stage runs on a persistent per-agent worker pool sized by
// Config.UpdateWorkers. Each agent's update draws from its own RNG stream
// and writes only its own networks, so serial (UpdateWorkers=1) and
// parallel runs are bit-identical for the same seed; see updateAgent for
// the isolation invariants.
type Trainer struct {
	cfg Config
	env mpe.Env
	rng *rand.Rand

	n       int   // trainable agents
	obsDims []int // per-agent observation widths
	actDim  int

	agents  []*agentNets
	buf     *replay.Buffer
	kv      *replay.KVBuffer
	sampler replay.Sampler
	prof    *profiler.Profile

	// Experience service wiring (see SetExperienceService). When expSource
	// is set, mini-batches come from it instead of the in-process sampler;
	// when expSink is set, every collected transition is also published.
	expSource replay.TransitionSource
	expSink   replay.TransitionSink
	expErrMu  sync.Mutex
	expErr    error

	// Episode state.
	obs           [][]float64
	epStep        int
	epRewardSum   float64
	episodeCount  int
	lastEpReward  float64
	totalSteps    int
	sinceUpdate   int
	updateCount   int
	actorUpdCount int

	// Health signals for the watchdog.
	lastTDMean    float64 // mean |TD error| of the most recent critic update
	sanitizedSeen uint64  // sampler clamp count already forwarded to the profiler

	// Telemetry taps. phaseObs mirrors every phase observation and event
	// to an external collector; updateListener receives one UpdateEvent
	// per completed update-all-trainers stage. Both are optional.
	phaseObs       profiler.Observer
	updateListener func(UpdateEvent)
	prevPhaseDur   []time.Duration // per-phase totals at the last emitted event
	tracer         *trace.Tracer   // optional span tracer; nil behaves as disabled

	// Joint-space layout: column offsets of each agent's observation and
	// action block in the critic input [obs_1..obs_N, act_1..act_N].
	jointDim   int
	obsOffsets []int
	actOffsets []int

	// Parallel update engine. Per-agent RNG streams keep sampling and
	// target-noise draws independent of worker interleaving; per-worker
	// scratch arenas keep the hot path allocation-free; per-agent pending
	// slots batch TD-error feedback until after the join barrier.
	updateWorkers int // resolved worker cap (≥1)
	agentRNGs     []*rand.Rand
	prioritized   bool // sampler implements PrioritySampler
	scratch       []*updateScratch
	workCh        chan int
	updWG         sync.WaitGroup
	updDelayed    bool // MATD3 policy-delay flag for the in-flight update
	pendingIdx    [][]int
	pendingTD     [][]float64
	tdMeans       []float64
	updSeeds      []int64 // per-agent batch seeds, pre-drawn serially each update

	// Shared read-only and interaction scratch.
	onesW       []float64
	actionProbs [][]float64 // per-agent action vectors for the current step
	actionIdx   []int
	dones       []float64
	obsRow      *tensor.Matrix
}

// updateScratch is one worker's private arena for the update stage: the
// critics' joint inputs with the batch tensors that live inside them, TD
// errors, a reusable sample, a profiler shard, and shared-weight shadow
// clones of every agent's target actor (the only networks every worker must
// forward — the N×(N-1) cross-agent lookups of the CTDE target calculation).
//
// The joint inputs are assembled where they are written: agent j's Obs and
// Act are column views of jointCur's blocks, its NextObs and targetProbs[j]
// of jointNext's, so a gather fills the critics' inputs directly and target
// probabilities land in place. Only Rew and Done are matrices of their own.
type updateScratch struct {
	sample      replay.Sample
	batches     []*replay.AgentBatch
	targetProbs []*tensor.Matrix
	tActors     []*nn.Network // shadows aliasing agents[j].targetActor weights
	jointCur    *tensor.Matrix
	jointNext   *tensor.Matrix
	yTarget     *tensor.Matrix
	qGrad       *tensor.Matrix
	gradLogits  *tensor.Matrix
	tdAbs       []float64
	prof        profiler.Profile
}

func (t *Trainer) newUpdateScratch() *updateScratch {
	b := t.cfg.BatchSize
	s := &updateScratch{
		batches:     make([]*replay.AgentBatch, t.n),
		targetProbs: make([]*tensor.Matrix, t.n),
		tActors:     make([]*nn.Network, t.n),
		jointCur:    tensor.New(b, t.jointDim),
		jointNext:   tensor.New(b, t.jointDim),
		yTarget:     tensor.New(b, 1),
		qGrad:       tensor.New(b, 1),
		gradLogits:  tensor.New(b, t.actDim),
		tdAbs:       make([]float64, b),
	}
	for i := 0; i < t.n; i++ {
		obs := t.obsOffsets[i] + t.obsDims[i]
		act := t.actOffsets[i] + t.actDim
		s.batches[i] = &replay.AgentBatch{
			Obs:     s.jointCur.ColView(t.obsOffsets[i], obs),
			Act:     s.jointCur.ColView(t.actOffsets[i], act),
			Rew:     tensor.New(b, 1),
			NextObs: s.jointNext.ColView(t.obsOffsets[i], obs),
			Done:    tensor.New(b, 1),
		}
		s.targetProbs[i] = s.jointNext.ColView(t.actOffsets[i], act)
		s.tActors[i] = t.agents[i].targetActor.SharedClone()
	}
	s.prof.SetObserver(t.phaseObs)
	return s
}

// agentStreamPrime spaces the per-agent RNG streams derived from the run
// seed.
const agentStreamPrime = 1_000_000_007

// agentStreamSeed derives agent i's RNG stream seed from the run seed.
func agentStreamSeed(seed int64, agent int) int64 {
	return seed ^ int64(agent+1)*agentStreamPrime
}

// NewTrainer builds a trainer for cfg over env, constructing all agent
// networks, the replay storage, and the selected sampling strategy.
func NewTrainer(cfg Config, env mpe.Env) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Trainer{
		cfg:     cfg,
		env:     env,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		n:       env.NumAgents(),
		obsDims: env.ObsDims(),
		actDim:  env.NumActions(),
		prof:    &profiler.Profile{},
	}
	if cfg.WarmupSize == 0 {
		cfg.WarmupSize = cfg.BatchSize
		t.cfg.WarmupSize = cfg.BatchSize
	}
	t.updateWorkers = cfg.ResolvedUpdateWorkers()

	// Joint critic input layout.
	t.obsOffsets = make([]int, t.n)
	t.actOffsets = make([]int, t.n)
	off := 0
	for i, d := range t.obsDims {
		t.obsOffsets[i] = off
		off += d
	}
	for i := 0; i < t.n; i++ {
		t.actOffsets[i] = off
		off += t.actDim
	}
	t.jointDim = off

	for i := 0; i < t.n; i++ {
		t.agents = append(t.agents, newAgentNets(cfg, t.obsDims[i], t.actDim, t.jointDim, t.rng))
	}
	t.agentRNGs = make([]*rand.Rand, t.n)
	for i := range t.agentRNGs {
		t.agentRNGs[i] = rand.New(rand.NewSource(agentStreamSeed(cfg.Seed, i)))
	}

	spec := replay.Spec{
		NumAgents: t.n,
		ObsDims:   t.obsDims,
		ActDim:    t.actDim,
		Capacity:  cfg.BufferCapacity,
	}
	t.buf = replay.NewBuffer(spec)
	if cfg.UseKVLayout {
		t.kv = replay.NewKVBuffer(spec)
	}
	switch cfg.Sampler {
	case SamplerUniform:
		t.sampler = replay.NewUniformSampler(t.buf)
	case SamplerLocality:
		t.sampler = replay.NewLocalitySampler(t.buf, cfg.Neighbors, cfg.Refs)
	case SamplerPER:
		t.sampler = replay.NewPERSampler(t.buf)
	case SamplerIPLocality:
		t.sampler = replay.NewIPLocalitySampler(t.buf, cfg.ISBeta)
	case SamplerRankPER:
		t.sampler = replay.NewRankPERSampler(t.buf)
	case SamplerEpisodeLocality:
		t.sampler = replay.NewEpisodeAwareLocalitySampler(t.buf, cfg.Neighbors, cfg.Refs)
	default:
		return nil, fmt.Errorf("core: unknown sampler %v", cfg.Sampler)
	}
	_, t.prioritized = t.sampler.(replay.PrioritySampler)

	// Per-agent pending slots for batched priority feedback and TD means.
	t.pendingIdx = make([][]int, t.n)
	t.pendingTD = make([][]float64, t.n)
	t.tdMeans = make([]float64, t.n)

	// Shared scratch.
	t.onesW = make([]float64, cfg.BatchSize)
	for i := range t.onesW {
		t.onesW[i] = 1
	}
	t.actionProbs = make([][]float64, t.n)
	for i := range t.actionProbs {
		t.actionProbs[i] = make([]float64, t.actDim)
	}
	t.actionIdx = make([]int, t.n)
	t.dones = make([]float64, t.n)
	t.obsRow = tensor.New(1, 0) // shape rebound per agent in interact

	t.obs = env.Reset(t.rng)
	return t, nil
}

// Config returns the trainer's configuration (with defaults resolved).
func (t *Trainer) Config() Config { return t.cfg }

// Profile returns the phase-timing profile.
func (t *Trainer) Profile() *profiler.Profile { return t.prof }

// Buffer returns the baseline replay buffer.
func (t *Trainer) Buffer() *replay.Buffer { return t.buf }

// KVBuffer returns the key-value table, or nil when the layout
// reorganization is disabled.
func (t *Trainer) KVBuffer() *replay.KVBuffer { return t.kv }

// Sampler returns the active sampling strategy.
func (t *Trainer) Sampler() replay.Sampler { return t.sampler }

// TotalSteps returns the number of environment steps taken.
func (t *Trainer) TotalSteps() int { return t.totalSteps }

// UpdateCount returns how many update-all-trainers stages have run.
func (t *Trainer) UpdateCount() int { return t.updateCount }

// EpisodeCount returns the number of completed episodes.
func (t *Trainer) EpisodeCount() int { return t.episodeCount }

// LastEpisodeReward returns the mean-over-agents summed reward of the most
// recently completed episode.
func (t *Trainer) LastEpisodeReward() float64 { return t.lastEpReward }

// JointDim returns the centralized critic's input width.
func (t *Trainer) JointDim() int { return t.jointDim }

// UpdateWorkers returns the resolved worker-pool size (before the per-update
// cap at the agent count).
func (t *Trainer) UpdateWorkers() int { return t.updateWorkers }

// Close shuts down the update worker pool. The trainer must not be updated
// afterwards; Close is idempotent and safe on trainers that never went
// parallel.
func (t *Trainer) Close() {
	if t.workCh != nil {
		close(t.workCh)
		t.workCh = nil
	}
}

// Step advances the environment by one step (action selection, env
// interaction, replay add) and runs update-all-trainers when due. It
// returns true if an episode completed on this step. Experience-service
// failures (a remote source past its retry budget) panic; use StepE to
// handle them.
func (t *Trainer) Step() bool {
	done, err := t.StepE()
	if err != nil {
		panic(err)
	}
	return done
}

// StepE is Step with experience-service errors surfaced instead of
// panicking. Trainers without a remote source never return an error.
func (t *Trainer) StepE() (bool, error) {
	done := t.interact(true)
	if err := t.ExperienceErr(); err != nil {
		return done, err
	}
	t.sinceUpdate++
	if t.sinceUpdate >= t.cfg.UpdateEvery {
		ready, err := t.updateReady()
		if err != nil {
			return done, err
		}
		if ready {
			t.sinceUpdate = 0
			t.UpdateAllTrainers()
			if err := t.ExperienceErr(); err != nil {
				return done, err
			}
		}
	}
	return done, nil
}

// Warmup runs env steps without any training updates, pre-filling the
// replay buffer (used by the characterization harness).
func (t *Trainer) Warmup(steps int) {
	for i := 0; i < steps; i++ {
		t.interact(false)
	}
}

// interact performs one action-selection + env-step + replay-add cycle.
// When timed is false the phases are not recorded (warmup).
func (t *Trainer) interact(timed bool) bool {
	if timed {
		t.prof.Start(profiler.PhaseActionSelection)
	}
	obsRow := t.obsRow
	for i := 0; i < t.n; i++ {
		obsRow.Rows, obsRow.Cols, obsRow.Data = 1, t.obsDims[i], t.obs[i]
		logits := t.agents[i].actor.Forward(obsRow)
		nn.GumbelSoftmaxRow(t.actionProbs[i], logits.Row(0), t.cfg.GumbelTau, t.rng)
		if !finiteSlice(t.actionProbs[i]) {
			// A diverged actor must not write NaN actions into the replay
			// buffer: one poisoned row re-poisons every batch that samples
			// it, even after a watchdog rollback restores the weights. Act
			// uniformly at random until the watchdog recovers.
			uniform := 1 / float64(t.actDim)
			for k := range t.actionProbs[i] {
				t.actionProbs[i][k] = uniform
			}
			t.actionIdx[i] = t.rng.Intn(t.actDim)
			t.prof.Event(profiler.EventActionSanitized, 1)
			continue
		}
		t.actionIdx[i] = tensor.ArgMax(t.actionProbs[i])
	}
	if timed {
		t.prof.Stop(profiler.PhaseActionSelection)
		t.prof.Start(profiler.PhaseEnvStep)
	}
	nextObs, rewards := t.env.Step(t.actionIdx)
	if timed {
		t.prof.Stop(profiler.PhaseEnvStep)
	}

	t.epStep++
	t.totalSteps++
	var meanRew float64
	for _, r := range rewards {
		meanRew += r
	}
	meanRew /= float64(t.n)
	t.epRewardSum += meanRew

	episodeDone := t.epStep >= t.cfg.MaxEpisodeLen
	doneFlag := 0.0
	if episodeDone {
		doneFlag = 1
	}
	for i := range t.dones {
		t.dones[i] = doneFlag
	}

	if timed {
		t.prof.Start(profiler.PhaseReplayAdd)
	}
	t.buf.Add(t.obs, t.actionProbs, rewards, nextObs, t.dones)
	if timed {
		t.prof.Stop(profiler.PhaseReplayAdd)
	}
	if t.kv != nil {
		// The key-value table is maintained incrementally: every new
		// transition is reshaped into its interleaved row as it arrives,
		// which is the layout-reorganization cost in steady-state training.
		if timed {
			t.prof.Start(profiler.PhaseLayoutReorg)
		}
		t.kv.Add(t.obs, t.actionProbs, rewards, nextObs, t.dones)
		if timed {
			t.prof.Stop(profiler.PhaseLayoutReorg)
		}
	}
	if t.expSink != nil {
		// Publish to the experience service in collection order. Sinks may
		// buffer; the update gate flushes before counting rows.
		if timed {
			t.prof.Start(profiler.PhaseReplayAdd)
		}
		if err := t.expSink.Add(t.obs, t.actionProbs, rewards, nextObs, t.dones); err != nil {
			t.setExpErr(err)
		}
		if timed {
			t.prof.Stop(profiler.PhaseReplayAdd)
		}
	}

	if episodeDone {
		t.lastEpReward = t.epRewardSum
		t.epRewardSum = 0
		t.epStep = 0
		t.episodeCount++
		t.obs = t.env.Reset(t.rng)
	} else {
		t.obs = nextObs
	}
	return episodeDone
}

// RunEpisodes runs n full episodes (with training updates as configured),
// invoking cb (if non-nil) with each completed episode's mean reward.
func (t *Trainer) RunEpisodes(n int, cb func(episode int, meanReward float64)) {
	for completed := 0; completed < n; {
		if t.Step() {
			completed++
			if cb != nil {
				cb(t.episodeCount, t.lastEpReward)
			}
		}
	}
}

// ensureUpdateState lazily builds the per-worker scratch arenas and, when
// more than one worker is in play, the persistent pool goroutines. The pool
// size is fixed for the trainer's lifetime (agent count and config do not
// change), so this settles after the first update.
func (t *Trainer) ensureUpdateState(workers int) {
	for len(t.scratch) < workers {
		t.scratch = append(t.scratch, t.newUpdateScratch())
	}
	if workers > 1 && t.workCh == nil {
		t.workCh = make(chan int)
		for w := 0; w < workers; w++ {
			go t.updateWorkerLoop(t.scratch[w])
		}
	}
}

// updateWorkerLoop is one pool goroutine: it owns scratch s for its entire
// life and processes agent indices until the channel closes.
func (t *Trainer) updateWorkerLoop(s *updateScratch) {
	for i := range t.workCh {
		t.updateAgent(s, i, t.updDelayed)
		t.updWG.Done()
	}
}

// UpdateAllTrainers runs the full update stage once: for every agent, the
// mini-batch sampling, target-Q calculation and Q-loss/P-loss phases, then
// the batched priority feedback and target-network soft updates. With
// UpdateWorkers > 1 the per-agent updates run concurrently on the worker
// pool; results are bit-identical to the serial path because every agent
// draws from its own RNG stream, writes only its own networks, and all
// cross-agent reads (target actors, replay storage, sum trees) are frozen
// for the duration of the parallel window.
func (t *Trainer) UpdateAllTrainers() {
	if t.expSource == nil && t.buf.Len() < 1 {
		panic("core: update with empty replay buffer")
	}
	t.updateCount++

	// Open the per-update root span and publish its context before the
	// seed pre-draw, so every sample RPC this update issues (including
	// prefetched ones) joins the trace. Unsampled updates clear the
	// context so their RPCs do not attach to a stale root. The trace ID
	// is a pure function of (seed, update index): the same seeded run
	// traces to the same IDs on every machine.
	var updSpan trace.Span
	if t.tracer.Sampled(uint64(t.updateCount)) {
		tid := trace.DeriveTraceID(uint64(t.cfg.Seed), trace.KindUpdate, uint64(t.updateCount))
		updSpan = t.tracer.StartTrace(tid, "update")
		t.tracer.SetActive(updSpan.Context())
	} else if t.tracer.Enabled() {
		t.tracer.ClearActive()
	}

	delayed := t.cfg.Algorithm == MATD3 && t.updateCount%t.cfg.PolicyDelay != 0
	workers := t.updateWorkers
	if workers > t.n {
		workers = t.n
	}
	t.ensureUpdateState(workers)

	if t.expSource != nil {
		// Pre-draw every agent's batch seed serially, in agent order, before
		// any worker runs. Each draw is still the first Int63 taken from
		// stream i this update — exactly the value updateAgent used to draw
		// inline — so the schedule change is invisible to training. Hoisting
		// the draws is what makes overlap possible: a prefetching source can
		// start all n sample RPCs now and hide them behind gradient compute.
		if cap(t.updSeeds) < t.n {
			t.updSeeds = make([]int64, t.n)
		}
		t.updSeeds = t.updSeeds[:t.n]
		for i := 0; i < t.n; i++ {
			t.updSeeds[i] = t.agentRNGs[i].Int63()
		}
		if pf, ok := t.expSource.(replay.BatchPrefetcher); ok {
			pf.PrefetchBatch(t.cfg.BatchSize, t.updSeeds)
		}
	}

	if workers <= 1 {
		s := t.scratch[0]
		for i := 0; i < t.n; i++ {
			t.updateAgent(s, i, delayed)
		}
		s.prof.DrainInto(t.prof)
	} else {
		t.updDelayed = delayed
		t.updWG.Add(t.n)
		for i := 0; i < t.n; i++ {
			t.workCh <- i
		}
		t.updWG.Wait()
		// Drain profiler shards in worker order so phase totals stay
		// deterministic in structure (durations are wall-clock, counts are
		// exact).
		for _, s := range t.scratch[:workers] {
			s.prof.DrainInto(t.prof)
		}
	}

	// Batched priority feedback: every agent's TD errors were parked in its
	// pending slot during the (possibly concurrent) update; apply them
	// serially in agent order so the sum tree / rank order sees the same
	// write sequence regardless of worker count.
	if ps, ok := t.sampler.(replay.PrioritySampler); ok {
		for i := 0; i < t.n; i++ {
			if len(t.pendingIdx[i]) > 0 {
				ps.UpdatePriorities(t.pendingIdx[i], t.pendingTD[i])
			}
		}
	}
	var tdSum float64
	for _, m := range t.tdMeans {
		tdSum += m
	}
	t.lastTDMean = tdSum / float64(t.n)
	if !delayed {
		t.actorUpdCount += t.n
	}
	if sc, ok := t.sampler.(interface{ SanitizedCount() uint64 }); ok {
		if n := sc.SanitizedCount(); n > t.sanitizedSeen {
			t.prof.Event(profiler.EventPriorityClamped, n-t.sanitizedSeen)
			t.sanitizedSeen = n
		}
	}

	if !delayed {
		t.prof.Start(profiler.PhaseQPLoss)
		// Span name matches the profiler phase this block accumulates
		// into, so per-name span sums reconcile with /profilez totals.
		sp := t.tracer.StartSpan(updSpan.Context(), "q-loss-p-loss")
		for _, ag := range t.agents {
			ag.softUpdateTargets(t.cfg.Tau)
		}
		sp.EndArg("soft-updates", int64(t.n))
		t.prof.Stop(profiler.PhaseQPLoss)
	}

	// The root context stays active past End: the policy publisher reads
	// it from its own goroutine after this update returns, attributing
	// the publish RPC to the update that produced the weights.
	updSpan.EndArg("update", int64(t.updateCount))

	if t.updateListener != nil {
		t.updateListener(t.buildUpdateEvent())
	}
}

// updateAgent runs one agent's full update on worker scratch s. Isolation
// invariants that make concurrent calls (distinct s, distinct i) safe and
// deterministic:
//   - RNG draws (sampling, MATD3 target noise) come from agentRNGs[i] only.
//   - Writes touch only agent i's own networks/optimizers and s.
//   - Cross-agent target-actor forwards go through s.tActors shadows, which
//     alias weights (frozen until the post-join soft updates) but own their
//     forward scratch.
//   - Replay reads (SampleInto, GatherAll, sum-tree lookups) are concurrent
//     reads; priority writes are parked in pendingIdx/pendingTD[i] and
//     applied after the join.
func (t *Trainer) updateAgent(s *updateScratch, i int, delayed bool) {
	// Phase spans parent on the per-update root (zero when this update is
	// unsampled, making every span below a no-op). They sit inside the
	// profiler Start/Stop windows so span sums stay ≤ profiler totals.
	parent := t.tracer.Active()

	// ---- Mini-batch sampling phase ----
	s.prof.Start(profiler.PhaseSampling)
	sampleSpan := t.tracer.StartSpan(parent, "mini-batch-sampling")
	if t.expSource != nil {
		// Experience-service path: one seed per mini-batch from agent i's
		// stream; the source (local store or remote service) derives the
		// index set from it. The seed was pre-drawn serially at the top of
		// UpdateAllTrainers — the single Int63 draw replaces the in-process
		// sampler's RNG consumption in both local and remote mode, which is
		// what keeps the two bit-identical.
		seed := t.updSeeds[i]
		if _, err := t.expSource.SampleBatch(t.cfg.BatchSize, seed, s.batches); err != nil {
			t.setExpErr(fmt.Errorf("core: agent %d mini-batch: %w", i, err))
			sampleSpan.EndArg("agent", int64(i))
			s.prof.Stop(profiler.PhaseSampling)
			return
		}
	} else {
		t.sampler.SampleInto(&s.sample, t.cfg.BatchSize, t.agentRNGs[i])
		if t.cfg.UseKVLayout {
			t.kv.GatherAll(s.sample.Indices, s.batches)
		} else {
			t.buf.GatherAll(s.sample.Indices, s.batches)
		}
	}
	sampleSpan.EndArg("agent", int64(i))
	s.prof.Stop(profiler.PhaseSampling)

	// ---- Target-Q calculation phase ----
	s.prof.Start(profiler.PhaseTargetQ)
	tqSpan := t.tracer.StartSpan(parent, "target-q")
	t.computeTargets(s, i)
	tqSpan.EndArg("agent", int64(i))
	s.prof.Stop(profiler.PhaseTargetQ)

	// ---- Q-loss / P-loss phase ----
	s.prof.Start(profiler.PhaseQPLoss)
	qpSpan := t.tracer.StartSpan(parent, "q-loss-p-loss")
	weights := s.sample.Weights
	if len(weights) == 0 {
		weights = t.onesW
	}
	t.updateCritics(s, i, weights)
	if !delayed {
		t.updateActor(s, i)
	}
	qpSpan.EndArg("agent", int64(i))
	s.prof.Stop(profiler.PhaseQPLoss)

	if t.prioritized {
		m := len(s.sample.Indices)
		t.pendingIdx[i] = append(t.pendingIdx[i][:0], s.sample.Indices...)
		t.pendingTD[i] = append(t.pendingTD[i][:0], s.tdAbs[:m]...)
	}
}

// computeTargets fills s.yTarget for agent i: every agent's target actor
// (through this worker's shadows) maps its next observation to target action
// probabilities (with MATD3 target policy smoothing from agent i's RNG
// stream), written into their blocks of the joint next state-action, and the
// target critic(s) produce y = r + γ(1-done)·Q'. This is the N×(N-1)
// cross-agent policy lookup structure the paper describes.
func (t *Trainer) computeTargets(s *updateScratch, i int) {
	b := t.cfg.BatchSize
	rng := t.agentRNGs[i]
	for j := 0; j < t.n; j++ {
		logits := s.tActors[j].Forward(s.batches[j].NextObs)
		if t.cfg.Algorithm == MATD3 && t.cfg.TargetNoiseStd > 0 {
			// Target policy smoothing: clipped Gaussian noise on logits.
			for k := range logits.Data {
				noise := rng.NormFloat64() * t.cfg.TargetNoiseStd
				if noise > t.cfg.TargetNoiseClip {
					noise = t.cfg.TargetNoiseClip
				} else if noise < -t.cfg.TargetNoiseClip {
					noise = -t.cfg.TargetNoiseClip
				}
				logits.Data[k] += noise
			}
		}
		tensor.SoftmaxRows(s.targetProbs[j], logits)
	}
	q1 := t.agents[i].targetCritic1.Forward(s.jointNext)
	qNext := q1
	if t.agents[i].targetCritic2 != nil {
		q2 := t.agents[i].targetCritic2.Forward(s.jointNext)
		// Twin target: elementwise min counters over-estimation bias.
		for k := range q1.Data {
			if q2.Data[k] < q1.Data[k] {
				q1.Data[k] = q2.Data[k]
			}
		}
	}
	rew := s.batches[i].Rew
	done := s.batches[i].Done
	for k := 0; k < b; k++ {
		s.yTarget.Data[k] = rew.Data[k] + t.cfg.Gamma*(1-done.Data[k])*qNext.Data[k]
	}
}

// updateCritics applies one weighted-MSE Adam step to each critic of agent
// i on the joint current state-action the gather wrote, recording absolute
// TD errors for prioritized samplers.
func (t *Trainer) updateCritics(s *updateScratch, i int, weights []float64) {
	ag := t.agents[i]

	q := ag.critic1.Forward(s.jointCur)
	nn.WeightedMSELoss(s.qGrad, q, s.yTarget, weights, s.tdAbs)
	var tdSum float64
	for _, v := range s.tdAbs {
		tdSum += v
	}
	t.tdMeans[i] = tdSum / float64(len(s.tdAbs))
	ag.critic1.ZeroGrads()
	// The critic's input is replay data: nobody reads its gradient.
	ag.critic1.BackwardParams(s.qGrad)
	ag.critic1.ClipGradients(t.cfg.ClipNorm)
	ag.critic1Opt.Step()

	if ag.critic2 != nil {
		q2 := ag.critic2.Forward(s.jointCur)
		nn.WeightedMSELoss(s.qGrad, q2, s.yTarget, weights, nil)
		ag.critic2.ZeroGrads()
		ag.critic2.BackwardParams(s.qGrad)
		ag.critic2.ClipGradients(t.cfg.ClipNorm)
		ag.critic2Opt.Step()
	}
}

// updateActor applies one policy-gradient step to agent i's actor: the
// actor's softmax action replaces its buffer action in the joint input,
// the critic scores it, and -mean(Q) (plus the reference implementation's
// 1e-3 logit regularizer) is minimized through the critic into the actor.
// Both critics have read the buffer action by now.
func (t *Trainer) updateActor(s *updateScratch, i int) {
	ag := t.agents[i]
	b := t.cfg.BatchSize

	logits := ag.actor.Forward(s.batches[i].Obs)
	probs := tensor.SoftmaxRows(s.batches[i].Act, logits) // agent i's block of jointCur

	ag.critic1.Forward(s.jointCur)
	// dPLoss/dQ = -1/B for pLoss = -mean(Q).
	s.qGrad.Fill(-1 / float64(b))
	// Only ∂Q/∂(this agent's action columns of the joint input) is read
	// here; the critic is not trained in this step, so neither its parameter
	// gradients nor the other input columns' are computed.
	gradProbs := ag.critic1.BackwardInputCols(s.qGrad, t.actOffsets[i], t.actOffsets[i]+t.actDim)
	nn.SoftmaxBackwardRows(s.gradLogits, probs, gradProbs)
	// Logit regularizer: +1e-3 · mean(logits²).
	regScale := 1e-3 * 2 / float64(len(logits.Data))
	for k := range s.gradLogits.Data {
		s.gradLogits.Data[k] += regScale * logits.Data[k]
	}
	ag.actor.ZeroGrads()
	ag.actor.BackwardParams(s.gradLogits)
	ag.actor.ClipGradients(t.cfg.ClipNorm)
	ag.actorOpt.Step()
}
