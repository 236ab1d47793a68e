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
	store   replay.Store // the one row store: a *replay.Buffer, or a *replay.KVBuffer under UseKVLayout
	sampler replay.Sampler
	prof    *profiler.Profile

	// Experience service wiring (see SetExperienceService). When expSource
	// is set, mini-batches come from it instead of the in-process sampler
	// and store stays empty; when expSink is set, every collected transition
	// is published to it.
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

	ckpt []byte // SaveCheckpoint's buffer, reused by the next save

	// Shared read-only and interaction scratch.
	onesW       []float64
	actionProbs [][]float64 // per-agent action vectors for the current step
	actionIdx   []int
	dones       []float64
	obsRow      *tensor.Matrix
}

// updateScratch is one worker's private arena for the update stage: the
// critics' joint inputs with the batch tensors that live inside them, TD
// errors, a reusable sample, a profiler shard, and the workspaces every
// batch pass of the update runs on.
//
// The joint inputs are assembled where they are written: agent j's Obs and
// Act are column views of jointCur's blocks, its NextObs and targetProbs[j]
// of jointNext's, so a gather fills the critics' inputs directly and target
// probabilities land in place. Only Rew and Done are matrices of their own,
// one pair per worker: an update reads only the updated agent's (the
// target), so only that agent's batch points at the pair and the gather
// skips every other agent's.
//
// A workspace (nn.Network.Bind) reads an agent's weights and accumulates
// into its gradients through its own batch-sized scratch, so a worker holds
// one set of scratch per network shape instead of one per network: an actor
// and a target-actor workspace per distinct observation width (actors[i]
// and tActors[i] are agent i's), one critic workspace for the critic updates
// and the actor's pass through critic1, and one target-critic workspace per
// twin, because MATD3's q1 is read after q2's forward. Each use binds the
// workspace afresh, so no binding outlives the call that made it and
// nothing that writes an agent's networks — a checkpoint restore, a
// watchdog rollback — needs to know about workspaces.
type updateScratch struct {
	sample      replay.Sample
	batches     []*replay.AgentBatch
	targetProbs []*tensor.Matrix
	actors      []*nn.Network // shared by agents of one observation width
	tActors     []*nn.Network // likewise, for the target actors
	critic      nn.Network
	tCritics    [2]nn.Network
	jointCur    *tensor.Matrix
	jointNext   *tensor.Matrix
	rew, done   *tensor.Matrix // the batch of the agent being updated
	yTarget     *tensor.Matrix
	qGrad       *tensor.Matrix
	gradLogits  *tensor.Matrix
	tdAbs       []float64
	prof        profiler.Profile
}

// jointPitch is the row pitch of the critics' current joint input: whole
// 64-byte lines, so that the critic's weight gradient, which reads the input
// a row of vectors at a time (nn.Dense.backwardParams), never splits a load
// across two lines; and not a multiple of 512 bytes, which would put a
// column's elements — the multipliers of the actor's weight gradient, read
// down the same matrix — into a few L1 sets. 63 columns run at 72.
func jointPitch(width int) int {
	p := (width + 7) &^ 7
	if p%64 == 0 {
		p += 8
	}
	return p
}

func (t *Trainer) newUpdateScratch() *updateScratch {
	b := t.cfg.BatchSize
	s := &updateScratch{
		batches:     make([]*replay.AgentBatch, t.n),
		targetProbs: make([]*tensor.Matrix, t.n),
		actors:      make([]*nn.Network, t.n),
		tActors:     make([]*nn.Network, t.n),
		jointCur:    tensor.New(b, jointPitch(t.jointDim)).ColView(0, t.jointDim),
		jointNext:   tensor.New(b, t.jointDim),
		rew:         tensor.New(b, 1),
		done:        tensor.New(b, 1),
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
			NextObs: s.jointNext.ColView(t.obsOffsets[i], obs),
		}
		s.targetProbs[i] = s.jointNext.ColView(t.actOffsets[i], act)
		s.actors[i], s.tActors[i] = &nn.Network{}, &nn.Network{}
		for j := 0; j < i; j++ {
			if t.obsDims[j] == t.obsDims[i] {
				s.actors[i], s.tActors[i] = s.actors[j], s.tActors[j]
				break
			}
		}
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
	if cfg.UseKVLayout {
		t.store = replay.NewKVBuffer(spec)
	} else {
		t.store = replay.NewBuffer(spec)
	}
	switch cfg.Sampler {
	case SamplerUniform:
		t.sampler = replay.NewUniformSampler(t.store)
	case SamplerLocality:
		t.sampler = replay.NewLocalitySampler(t.store, cfg.Neighbors, cfg.Refs)
	case SamplerPER:
		t.sampler = replay.NewPERSampler(t.store)
	case SamplerIPLocality:
		t.sampler = replay.NewIPLocalitySampler(t.store, cfg.ISBeta)
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

// Buffer returns the trainer's per-agent replay buffer, or nil when it
// stores its rows as the key-value table (UseKVLayout). Store returns
// either.
func (t *Trainer) Buffer() *replay.Buffer {
	buf, _ := t.store.(*replay.Buffer)
	return buf
}

// Store returns the trainer's one replay row store: a *replay.Buffer, or a
// *replay.KVBuffer under UseKVLayout.
func (t *Trainer) Store() replay.Store { return t.store }

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

// phaseEdge reads the clock for a phase edge of a timed interaction; an
// untimed one (warmup) reads no clock and gets the zero Time.
func phaseEdge(timed bool) time.Time {
	if !timed {
		return time.Time{}
	}
	return time.Now()
}

// interact performs one action-selection + env-step + replay-add cycle.
// When timed is false the phases are not recorded (warmup). Each phase edge
// is one clock read, and adjacent phases share theirs.
func (t *Trainer) interact(timed bool) bool {
	start := phaseEdge(timed)
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
	acted := phaseEdge(timed)
	nextObs, rewards := t.env.Step(t.actionIdx)
	stepped := phaseEdge(timed)
	if timed {
		t.prof.Add(profiler.PhaseActionSelection, acted.Sub(start))
		t.prof.Add(profiler.PhaseEnvStep, stepped.Sub(acted))
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

	if t.expSource == nil {
		// The local store is read only by the in-process sampler: a trainer
		// drawing from an experience source keeps no copy.
		start := phaseEdge(timed)
		t.store.Add(t.obs, t.actionProbs, rewards, nextObs, t.dones)
		if timed {
			// The key-value table is maintained incrementally: every new
			// transition is reshaped into its interleaved row as it arrives,
			// which is the layout-reorganization cost in steady-state training.
			phase := profiler.PhaseReplayAdd
			if t.cfg.UseKVLayout {
				phase = profiler.PhaseLayoutReorg
			}
			t.prof.Add(phase, time.Since(start))
		}
	}
	if t.expSink != nil {
		// Publish to the experience service in collection order. Sinks may
		// buffer; the update gate flushes before counting rows.
		start := phaseEdge(timed)
		if err := t.expSink.Add(t.obs, t.actionProbs, rewards, nextObs, t.dones); err != nil {
			t.setExpErr(err)
		}
		if timed {
			t.prof.Add(profiler.PhaseReplayAdd, time.Since(start))
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
			go t.updateWorkerLoop(t.workCh, t.scratch[w])
		}
	}
}

// updateWorkerLoop is one pool goroutine: it owns scratch s for its entire
// life and processes agent indices until Close closes work. It takes the
// channel as an argument because Close clears the field, possibly before a
// goroutine that never got work has started.
func (t *Trainer) updateWorkerLoop(work <-chan int, s *updateScratch) {
	for i := range work {
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
	if t.expSource == nil && t.store.Len() < 1 {
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
		start := time.Now()
		for _, ag := range t.agents {
			ag.softUpdateTargets(t.cfg.Tau)
		}
		end := time.Now()
		t.prof.Add(profiler.PhaseQPLoss, end.Sub(start))
		t.tracer.RecordSpan(updSpan.Context(), profiler.PhaseQPLoss.String(), start, end, "soft-updates", int64(t.n))
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
//   - Every batch pass runs on s's workspaces, bound to agent i's networks
//     or, for the cross-agent target-actor forwards, to agent j's target
//     actor, whose weights stay frozen until the post-join soft updates.
//   - Replay reads (SampleInto, GatherAll, sum-tree lookups) are concurrent
//     reads; priority writes are parked in pendingIdx/pendingTD[i] and
//     applied after the join.
func (t *Trainer) updateAgent(s *updateScratch, i int, delayed bool) {
	// Each phase edge is one clock read, shared by the phases on either
	// side of it. A phase's profile entry and its span both come from its
	// two edges, so on a sampled update the span durations equal the
	// profile to the nanosecond. Spans parent on the per-update root (zero
	// when this update is unsampled, making every span below a no-op).
	parent := t.tracer.Active()

	// ---- Mini-batch sampling phase ----
	start := time.Now()
	for j, b := range s.batches {
		b.Rew, b.Done = nil, nil
		if j == i {
			b.Rew, b.Done = s.rew, s.done
		}
	}
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
			failed := time.Now()
			s.prof.Add(profiler.PhaseSampling, failed.Sub(start))
			t.tracer.RecordSpan(parent, profiler.PhaseSampling.String(), start, failed, "agent", int64(i))
			return
		}
	} else {
		t.sampler.SampleInto(&s.sample, t.cfg.BatchSize, t.agentRNGs[i])
		t.store.GatherAll(s.sample.Indices, s.batches)
	}
	sampled := time.Now()
	s.prof.Add(profiler.PhaseSampling, sampled.Sub(start))
	t.tracer.RecordSpan(parent, profiler.PhaseSampling.String(), start, sampled, "agent", int64(i))

	// ---- Target-Q calculation phase ----
	t.computeTargets(s, i)
	targeted := time.Now()
	s.prof.Add(profiler.PhaseTargetQ, targeted.Sub(sampled))
	t.tracer.RecordSpan(parent, profiler.PhaseTargetQ.String(), sampled, targeted, "agent", int64(i))

	// ---- Q-loss / P-loss phase ----
	weights := s.sample.Weights
	if len(weights) == 0 {
		weights = t.onesW
	}
	t.updateCritics(s, i, weights)
	if !delayed {
		t.updateActor(s, i)
	}
	updated := time.Now()
	s.prof.Add(profiler.PhaseQPLoss, updated.Sub(targeted))
	t.tracer.RecordSpan(parent, profiler.PhaseQPLoss.String(), targeted, updated, "agent", int64(i))

	if t.prioritized {
		m := len(s.sample.Indices)
		t.pendingIdx[i] = append(t.pendingIdx[i][:0], s.sample.Indices...)
		t.pendingTD[i] = append(t.pendingTD[i][:0], s.tdAbs[:m]...)
	}
}

// computeTargets fills s.yTarget for agent i: every agent's target actor
// (through this worker's workspaces) maps its next observation to target
// action probabilities (with MATD3 target policy smoothing from agent i's
// RNG stream), written into their blocks of the joint next state-action, and
// the target critic(s) produce y = r + γ(1-done)·Q'. This is the N×(N-1)
// cross-agent policy lookup structure the paper describes.
func (t *Trainer) computeTargets(s *updateScratch, i int) {
	b := t.cfg.BatchSize
	rng := t.agentRNGs[i]
	for j := 0; j < t.n; j++ {
		logits := s.tActors[j].Bind(t.agents[j].targetActor).Forward(s.batches[j].NextObs)
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
	ag := t.agents[i]
	q1 := s.tCritics[0].Bind(ag.targetCritic1).Forward(s.jointNext)
	qNext := q1
	if ag.targetCritic2 != nil {
		q2 := s.tCritics[1].Bind(ag.targetCritic2).Forward(s.jointNext)
		// Twin target: elementwise min counters over-estimation bias.
		for k := range q1.Data {
			if q2.Data[k] < q1.Data[k] {
				q1.Data[k] = q2.Data[k]
			}
		}
	}
	for k := 0; k < b; k++ {
		s.yTarget.Data[k] = s.rew.Data[k] + t.cfg.Gamma*(1-s.done.Data[k])*qNext.Data[k]
	}
}

// updateCritics applies one weighted-MSE Adam step to each critic of agent
// i on the joint current state-action the gather wrote, recording absolute
// TD errors for prioritized samplers.
func (t *Trainer) updateCritics(s *updateScratch, i int, weights []float64) {
	ag := t.agents[i]

	critic := s.critic.Bind(ag.critic1)
	q := critic.Forward(s.jointCur)
	nn.WeightedMSELoss(s.qGrad, q, s.yTarget, weights, s.tdAbs)
	var tdSum float64
	for _, v := range s.tdAbs {
		tdSum += v
	}
	t.tdMeans[i] = tdSum / float64(len(s.tdAbs))
	critic.ZeroGrads()
	// The critic's input is replay data: nobody reads its gradient.
	critic.BackwardParams(s.qGrad)
	critic.ClipGradients(t.cfg.ClipNorm)
	ag.critic1Opt.Step()

	if ag.critic2 != nil {
		critic = s.critic.Bind(ag.critic2)
		q2 := critic.Forward(s.jointCur)
		nn.WeightedMSELoss(s.qGrad, q2, s.yTarget, weights, nil)
		critic.ZeroGrads()
		critic.BackwardParams(s.qGrad)
		critic.ClipGradients(t.cfg.ClipNorm)
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

	actor := s.actors[i].Bind(ag.actor)
	logits := actor.Forward(s.batches[i].Obs)
	probs := tensor.SoftmaxRows(s.batches[i].Act, logits) // agent i's block of jointCur

	// dPLoss/dQ = -1/B for pLoss = -mean(Q): the same in every row, so Q
	// itself is never read and the critic's forward stops below its head.
	// Only ∂Q/∂(this agent's action columns of the joint input) is read
	// here; the critic is not trained in this step, so neither its parameter
	// gradients nor the other input columns' are computed.
	critic := s.critic.Bind(ag.critic1)
	critic.ForwardHidden(s.jointCur)
	gradProbs := critic.BackwardInputColsConst(-1/float64(b), t.actOffsets[i], t.actOffsets[i]+t.actDim)
	nn.SoftmaxBackwardRows(s.gradLogits, probs, gradProbs)
	// Logit regularizer: +1e-3 · mean(logits²).
	regScale := 1e-3 * 2 / float64(len(logits.Data))
	for k := range s.gradLogits.Data {
		s.gradLogits.Data[k] += regScale * logits.Data[k]
	}
	actor.ZeroGrads()
	actor.BackwardParams(s.gradLogits)
	actor.ClipGradients(t.cfg.ClipNorm)
	ag.actorOpt.Step()
}
