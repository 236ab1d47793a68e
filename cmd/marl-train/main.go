// Command marl-train trains one MARL configuration end to end and reports
// reward progress plus the phase-time breakdown.
//
// Usage:
//
//	marl-train -env pp -algo maddpg -agents 6 -episodes 200 -sampler locality -neighbors 16 -refs 64
//
// Long runs survive crashes and divergence: -checkpoint-dir enables periodic
// crash-safe snapshots (trainer checkpoint + replay buffer, CRC-protected,
// rotated; saving one leaves the run's bytes unchanged), -resume restarts
// from the newest intact generation with streams reseeded from -seed and the
// restored step count, and the divergence watchdog (on by default) rolls
// back to the last healthy state when training goes non-finite.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"marlperf/internal/cli"
	"marlperf/internal/core"
	"marlperf/internal/expserve"
	"marlperf/internal/expshard"
	"marlperf/internal/mpe"
	"marlperf/internal/netretry"
	"marlperf/internal/plot"
	"marlperf/internal/policysync"
	"marlperf/internal/profiler"
	"marlperf/internal/replay"
	"marlperf/internal/resilience"
	"marlperf/internal/telemetry"
)

const usage = `Usage: marl-train [flags]

Trains one MARL configuration end to end and reports reward progress plus
the phase-time breakdown. With -checkpoint-dir the run is resumable: it
writes CRC-protected snapshot generations atomically and -resume restarts
from the newest intact one, skipping truncated or corrupt generations.

With -replay-addr the learner samples from (and publishes to) a remote
experience service (marl-replayd) instead of its in-process buffer. For a
single learner and a fixed seed the run is bit-identical across -workers,
prefetch and -trace; it is bit-identical across shard counts and to the
same run without -replay-addr while the fabric retains the rows -buffer
would (one shard whose -capacity equals -buffer, or any fabric before it
wraps: k shards retain k × -capacity rows). Every topology takes a batch
as one seed from the agent's RNG stream, expanded by the same -sampler
plan over the rows in insertion order.

-replay-addr is a replay fabric spec: comma-separated shard groups, each
a pipe-separated list of replica replayd addresses ("h:9300" is one
shard, "h1:9300|h1:9301,h2:9300|h2:9301" is 2 shards at R=2).
Experience is time-striped over the groups, row t to group t mod G in
group-ID order; appends replicate to every member of that group, and each draw is
selected here once and gathered by the shards holding its rows — at R=1
with all shards live, training is bit-identical at any shard count until
the rings wrap. A
down member is served from its replicas; a fully down group is skipped
with the draw reweighted (counted, never silent).

With -policy-publish-addr the learner closes the actor half of the
distributed loop: after every -policy-publish-every update stages (and once
at start and at exit) it pushes its per-agent actor weights to a policy
service (marl-policyd) that any number of marl-actor processes long-poll,
so actors act on a policy at most one publish cadence stale. A policyd
outage only warns — training never blocks on distribution.

With -metrics-addr the run is observable live: /metrics serves Prometheus
text exposition (per-phase latency histograms, event counters, run gauges),
/profilez the profiler state as JSON, /healthz liveness, and /debug/pprof
the Go profiler. -runlog appends one JSONL run-event record per update step.

With -trace the learner records spans for every -trace-sample-th update
stage into a fixed ring. Trace context rides the X-Marl-Trace header on
sample/publish RPCs, so one trace stitches learner update → replayd sample
→ policyd publish → actor hot-swap across processes. The buffer is served
as Chrome trace JSON on /tracez (with -metrics-addr) and written to
-trace-out at exit; merge multi-process captures with marl-trace. Tracing
never draws randomness or changes training bytes — traced and untraced
runs produce bit-identical checkpoints.

Exit codes:
  0  training completed
  1  runtime failure (environment, trainer, persistence, watchdog budget)
  2  bad command line
  3  interrupted by SIGINT/SIGTERM; the final snapshot was written first
`

func main() { cli.Main(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := cli.NewFlagSet("marl-train", usage, stderr)
	var (
		envName   = fs.String("env", "cn", "environment: pp (predator-prey), cn (cooperative navigation), pd (physical deception)")
		algoName  = fs.String("algo", "maddpg", "algorithm: maddpg or matd3")
		agents    = fs.Int("agents", 3, "number of trainable agents")
		episodes  = fs.Int("episodes", 100, "episodes to train")
		sampler   = fs.String("sampler", "uniform", "sampler: uniform, locality, per, ip")
		neighbors = fs.Int("neighbors", 16, "locality sampler: neighbor run length")
		refs      = fs.Int("refs", 64, "locality sampler: reference points")
		batch     = fs.Int("batch", 1024, "mini-batch size")
		buffer    = fs.Int("buffer", 100_000, "replay capacity")
		kvLayout  = fs.Bool("kv", false, "enable key-value data-layout reorganization")
		workers   = fs.Int("workers", 0, "update-stage worker pool size (0: GOMAXPROCS); any value is bit-identical for a fixed seed")
		seed      = fs.Int64("seed", 1, "RNG seed")
		logEvery  = fs.Int("log-every", 20, "episodes between progress lines")
		savePath  = fs.String("save", "", "write a bare checkpoint here after training")
		loadPath  = fs.String("load", "", "restore a bare checkpoint before training")
		evalEps   = fs.Int("eval", 0, "greedy evaluation episodes after training")
		render    = fs.Bool("render", false, "render the final world state as ASCII")

		profileJSON = fs.String("profile-json", "", "write the final phase profile as JSON to this file at exit")

		replayAddr  = fs.String("replay-addr", "", "use a remote experience service (marl-replayd) instead of the in-process buffer: a replay fabric spec of comma-separated shard groups, each a pipe-separated replica list (\"h:9300\" is one shard, \"h1:9300|h1:9301,h2:9300|h2:9301\" two shards at R=2)")
		actorID     = fs.String("actor-id", "learner-0", "append-stream id for experience this learner collects itself (with -replay-addr)")
		replayRetry = fs.Duration("replay-retry", 2*time.Minute, "ride out an experience-service outage this long (retries with backoff) before failing the run")
		sampleConns = fs.Int("sample-conns", 4, "persistent connections striping sample/append traffic to the experience service (with -replay-addr)")
		spoolDir    = fs.String("spool-dir", "", "spool self-collected experience here while the experience service (or a fabric member) is unreachable; drained in order on recovery (with -replay-addr)")

		policyAddr  = fs.String("policy-publish-addr", "", "publish actor weights to a policy service (marl-policyd) at this address")
		policyEvery = fs.Int("policy-publish-every", 1, "update stages between policy publishes (with -policy-publish-addr)")

		checkpointDir   = fs.String("checkpoint-dir", "", "directory for crash-safe snapshot generations (enables resumable runs)")
		checkpointEvery = fs.Int("checkpoint-every", 25, "episodes between periodic snapshots (0: only the final one)")
		resume          = fs.Bool("resume", false, "resume from the newest intact snapshot in -checkpoint-dir")
		retain          = fs.Int("retain", 3, "snapshot generations to keep")
		watchdogOn      = fs.Bool("watchdog", true, "roll back to the last healthy state on NaN/Inf divergence or stalls")
	)
	obs := cli.Observe(fs, cli.Role{
		Proc: "learner", SampleUnit: "update stages", SampleDefault: 1,
		RunLogRecord: "run-event record per update step",
	})
	if code, done := cli.Parse(fs, args, false); done {
		return code
	}

	newEnv, err := cli.Env(*envName, *agents)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitUsage
	}
	env := newEnv()
	algo, err := cli.Algo(*algoName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitUsage
	}

	cfg := core.DefaultConfig(algo)
	cfg.BatchSize = *batch
	cfg.BufferCapacity = *buffer
	cfg.UseKVLayout = *kvLayout
	cfg.UpdateWorkers = *workers
	cfg.Seed = *seed
	cfg.Neighbors = *neighbors
	cfg.Refs = *refs
	switch *sampler {
	case "uniform":
		cfg.Sampler = core.SamplerUniform
	case "locality":
		cfg.Sampler = core.SamplerLocality
	case "per":
		cfg.Sampler = core.SamplerPER
	case "ip":
		cfg.Sampler = core.SamplerIPLocality
	default:
		fmt.Fprintf(stderr, "unknown sampler %q\n", *sampler)
		return cli.ExitUsage
	}
	if *resume && *checkpointDir == "" {
		fmt.Fprintln(stderr, "-resume requires -checkpoint-dir")
		return cli.ExitUsage
	}
	if *replayAddr != "" && (*resume || *loadPath != "") {
		fmt.Fprintln(stderr, "-replay-addr starts a fresh run; it cannot be combined with -resume or -load")
		return cli.ExitUsage
	}
	// A fabric draws by sample plan from rows that are already key-value
	// packed: a stateful sampler cannot run there and -kv would do nothing.
	plan, planErr := cfg.SamplePlan()
	if *replayAddr != "" && planErr != nil {
		fmt.Fprintf(stderr, "-replay-addr takes -sampler uniform or locality, not %q\n", *sampler)
		return cli.ExitUsage
	}
	if *replayAddr != "" && *kvLayout {
		fmt.Fprintln(stderr, "-replay-addr cannot be combined with -kv: fabric rows are already key-value packed")
		return cli.ExitUsage
	}
	if *checkpointDir != "" && *retain < 1 {
		fmt.Fprintf(stderr, "-retain %d: want ≥1\n", *retain)
		return cli.ExitUsage
	}
	if *policyEvery < 1 {
		fmt.Fprintf(stderr, "-policy-publish-every %d: want ≥1\n", *policyEvery)
		return cli.ExitUsage
	}
	// One registry for the whole process: trainer phase metrics, the two
	// network clients' retry/circuit series, and the run-info gauge all
	// land on the same /metrics page.
	if code := obs.Start(stdout, stderr); code != cli.ExitOK {
		return code
	}
	defer func() { code = obs.Close(code) }()
	obs.Registry.SetHelp("marl_run_info", "Constant 1, labelled with the run's workload identity.")
	obs.Registry.Gauge("marl_run_info", "algo", *algoName, "env", env.Name(), "sampler", *sampler).Set(1)

	tr, err := core.NewTrainer(cfg, env)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitError
	}
	defer tr.Close()
	var fabric *expserve.Fabric
	if *replayAddr != "" {
		fabric, err = wireExperienceService(tr, cfg, plan, env, *replayAddr, *actorID, *replayRetry, *sampleConns, *spoolDir, obs)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return cli.ExitError
		}
		fmt.Fprintf(stdout, "experience fabric: %s (plan=%s, actor-id=%s, conns=%d)\n",
			expshard.FormatTopology(fabric.Snapshot()), *sampler, *actorID, *sampleConns)
	}
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return cli.ExitError
		}
		loadErr := tr.LoadCheckpoint(f)
		f.Close()
		if loadErr != nil {
			fmt.Fprintln(stderr, "loading checkpoint:", loadErr)
			return cli.ExitError
		}
		fmt.Fprintf(stdout, "restored checkpoint from %s (%d steps, %d updates)\n", *loadPath, tr.TotalSteps(), tr.UpdateCount())
	}
	attachTrainer(obs, tr)

	var store *resilience.Store
	if *checkpointDir != "" {
		store, err = resilience.NewStore(*checkpointDir, *retain)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return cli.ExitError
		}
		store.Retry.OnRetry = func(attempt int, err error) {
			tr.Profile().Event(profiler.EventCheckpointRetried, 1)
			fmt.Fprintf(stderr, "warning: snapshot write attempt %d failed, retrying: %v\n", attempt, err)
		}
	}
	if *resume {
		if code := resumeFromStore(store, tr, stdout, stderr); code != cli.ExitOK {
			return code
		}
	}

	// Policy publisher: push actor weights after resume/load so subscribers
	// never see a staler policy than the learner is actually training.
	var pub *policyPublisher
	if *policyAddr != "" {
		pub = newPolicyPublisher(*policyAddr, *policyEvery, obs, stderr)
		pub.onOutageEnd = func(w outageWindow) {
			fmt.Fprintf(stderr, "policy publish recovered after %v (%d updates ran unpublished)\n",
				w.End.Sub(w.Start).Round(time.Millisecond), w.Updates)
			obs.Log(w)
		}
		if v, err := pub.publish(tr); err != nil {
			fmt.Fprintln(stderr, "warning: initial policy publish failed:", err)
		} else {
			fmt.Fprintf(stdout, "policy service: publishing to %s every %d updates (initial version v%d)\n",
				*policyAddr, *policyEvery, v)
		}
	}

	var wd *core.Watchdog
	if *watchdogOn {
		wd, err = core.NewWatchdog(tr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return cli.ExitError
		}
	}

	fmt.Fprintf(stdout, "training %s on %s with %d agents, sampler=%s, batch=%d, %d episodes\n",
		*algoName, env.Name(), *agents, *sampler, *batch, *episodes)
	start := time.Now()
	var window float64
	count := 0
	var curve []float64
	completed := 0
	interrupted := false
	for completed < *episodes && !interrupted {
		done, err := tr.StepE()
		if err != nil {
			fmt.Fprintln(stderr, "experience service:", err)
			return cli.ExitError
		}
		// Publish before the episode gate: update stages fire on step cadence,
		// not episode cadence, so a publish check only at episode boundaries
		// would lag the configured cadence by up to an episode.
		if pub != nil {
			pub.maybePublish(tr)
		}
		if !done {
			continue
		}
		completed++
		ep := tr.EpisodeCount()
		window += tr.LastEpisodeReward()
		count++
		if ep%*logEvery == 0 {
			mean := window / float64(count)
			curve = append(curve, mean)
			fmt.Fprintf(stdout, "episode %6d  mean reward %10.2f  updates %d  elapsed %v\n",
				ep, mean, tr.UpdateCount(), time.Since(start).Round(time.Millisecond))
			window, count = 0, 0
		}
		refreshObs(obs, tr)
		if wd != nil {
			ev, err := wd.Observe()
			if err != nil {
				fmt.Fprintln(stderr, "watchdog:", err)
				return cli.ExitError
			}
			if ev != nil {
				fmt.Fprintf(stderr, "watchdog: rolled back to episode %d: %v\n", ev.Episode, ev.Reason)
			}
		}
		if store != nil && *checkpointEvery > 0 && completed%*checkpointEvery == 0 {
			if err := saveSnapshot(store, tr); err != nil {
				// The store already retried; a persistent failure should not
				// kill a healthy training run, but it must be loud.
				fmt.Fprintln(stderr, "warning: periodic snapshot failed:", err)
			}
		}
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "\nsignal: episode finished, writing final snapshot")
			interrupted = true
		}
	}
	// Push any experience still buffered in the sink before reporting: the
	// service must end the run holding every row this process collected.
	if fabric != nil {
		if err := tr.FlushExperience(); err != nil {
			fmt.Fprintln(stderr, "final experience flush:", err)
			return cli.ExitError
		}
		// One greppable line for the smoke harnesses: how often the fabric
		// left the happy path.
		fmt.Fprintf(stdout, "shard fabric: replica_reads=%d degraded_draws=%d\n",
			fabric.ReplicaReads(), fabric.DegradedDraws())
	}
	if store != nil {
		if err := saveSnapshot(store, tr); err != nil {
			fmt.Fprintln(stderr, "final snapshot:", err)
			return cli.ExitError
		}
		fmt.Fprintf(stdout, "snapshot generation %d written to %s\n", tr.EpisodeCount(), store.Dir())
	}
	if pub != nil {
		// Terminal publish: actors keep acting after the learner exits; they
		// should do it on the final weights.
		if v, err := pub.publish(tr); err != nil {
			fmt.Fprintln(stderr, "warning: final policy publish failed:", err)
		} else {
			fmt.Fprintf(stdout, "policy: published final version v%d (%d updates)\n", v, tr.UpdateCount())
		}
		// An outage still open at exit never saw a recovery edge; surface
		// the window as open-ended so the run log accounts for every gap.
		if w, open := pub.openOutage(tr); open {
			fmt.Fprintf(stderr, "policy publish still failing at exit (outage began %v ago; %d updates unpublished)\n",
				time.Since(w.Start).Round(time.Millisecond), w.Updates)
			obs.Log(w)
		}
	}

	refreshObs(obs, tr)

	fmt.Fprintf(stdout, "\n%s after %v (%d env steps, %d updates, %d episodes total)\n\n",
		map[bool]string{false: "done", true: "interrupted"}[interrupted],
		time.Since(start).Round(time.Millisecond), tr.TotalSteps(), tr.UpdateCount(), tr.EpisodeCount())
	if len(curve) > 1 {
		fmt.Fprintf(stdout, "reward trend: %s\n\n", plot.Sparkline(curve))
	}
	fmt.Fprint(stdout, tr.Profile().Report())

	if !interrupted && *evalEps > 0 {
		fmt.Fprintf(stdout, "\ngreedy evaluation over %d episodes: mean reward %.2f\n", *evalEps, tr.Evaluate(*evalEps))
	}
	if *render {
		if w, ok := env.(interface{ World() *mpe.World }); ok {
			fmt.Fprintln(stdout, "\nfinal world state (P=predator/adversary, p=prey, A=agent, o=landmark):")
			fmt.Fprint(stdout, mpe.RenderASCII(w.World(), 60, 1.5))
		}
	}
	if *savePath != "" {
		if err := writeBareCheckpoint(tr, *savePath); err != nil {
			fmt.Fprintln(stderr, err)
			return cli.ExitError
		}
		fmt.Fprintf(stdout, "checkpoint written to %s\n", *savePath)
	}
	if *profileJSON != "" {
		if err := writeProfileJSON(tr, *profileJSON); err != nil {
			fmt.Fprintln(stderr, "writing profile JSON:", err)
			return cli.ExitError
		}
		fmt.Fprintf(stdout, "phase profile written to %s\n", *profileJSON)
	}
	if interrupted {
		return cli.ExitInterrupted
	}
	return cli.ExitOK
}

// wireExperienceService connects the trainer to a remote experience
// service for both halves of the split: mini-batches are drawn with the
// trainer's per-batch seeds and gathered by the shards (for uniform and
// locality plans, bit-identical to the trainer's own sampler and to an
// in-process expstore.Source while the fabric retains the same rows the
// local buffer would), the next update's sample RPCs
// overlapping this update's gradient compute, and everything this learner
// collects itself is published back under actorID so the service's row
// count gates updates exactly as a local buffer would.
func wireExperienceService(tr *core.Trainer, cfg core.Config, plan replay.SamplePlan, env mpe.Env, addr, actorID string, retryFor time.Duration, conns int, spoolDir string, obs *cli.Obs) (*expserve.Fabric, error) {
	reg, tracer := obs.Registry, obs.Tracer
	spec := cli.Spec(env, cfg.BufferCapacity)

	// The sampler fans one draw in across every shard group and the sink
	// fans replicated appends out. Each member gets a short per-request
	// deadline so a dead replica fails over fast; -replay-retry bounds how
	// long a draw or an unspooled append rides a whole-group outage.
	groups, err := expshard.ParseSpec(addr)
	if err != nil {
		return nil, err
	}
	fabric, err := expserve.NewFabric(groups, expserve.FabricOptions{
		Client: netretry.Options{
			Registry: reg,
			Conns:    conns,
			Tracer:   tracer,
		},
		RetryFor: retryFor,
	})
	if err != nil {
		return nil, err
	}
	src, err := expserve.NewShardedSource(fabric, spec, plan)
	if err != nil {
		return nil, err
	}
	sink, err := expserve.NewShardedSink(fabric, actorID, spec)
	if err != nil {
		return nil, err
	}
	if spoolDir != "" {
		if err := sink.EnableSpool(expserve.SpoolOptions{
			Dir:      spoolDir,
			MaxBytes: 1 << 30,
			Registry: reg,
		}); err != nil {
			return nil, err
		}
	}
	sink.ResumeCursors()
	return fabric, tr.SetExperienceService(expserve.NewPrefetchSource(src, conns, reg), sink)
}

// policyPublisher pushes the learner's actor weights to a policy service at
// a fixed update-stage cadence. Failures warn (once per outage streak)
// instead of stopping training: distribution is best-effort, actors keep
// acting on the last version they fetched.
type policyPublisher struct {
	client      *policysync.Client
	stderr      io.Writer
	every       int
	publishedAt int  // UpdateCount at the last successful publish
	failing     bool // suppress repeated warnings during an outage
	frame       []byte

	// Cadence publishes ship on their own goroutine (one in flight at a
	// time) so a policyd outage or partition slows distribution, never
	// training. All bookkeeping stays on the training goroutine; the
	// shipper only touches its frame and the results channel.
	busy    bool
	results chan pubResult

	// failingSince/lastErr track the current publish-outage window;
	// onOutageEnd (when non-nil) observes each window as it closes.
	failingSince time.Time
	lastErr      error
	onOutageEnd  func(outageWindow)
}

// pubResult is one finished background publish.
type pubResult struct {
	version uint64
	updates int
	err     error
}

// outageWindow is one contiguous stretch of failed policy publishes, as
// recorded in the run log. End is the recovery time (zero while the window
// is still open at exit); Updates is how many update stages ran during the
// window with no version reaching subscribers.
type outageWindow struct {
	Event   string    `json:"event"` // always "outage"
	Edge    string    `json:"edge"`  // always "policy_publish"
	Start   time.Time `json:"start"`
	End     time.Time `json:"end,omitempty"`
	Updates int       `json:"updates"`
	Error   string    `json:"error,omitempty"`
}

func newPolicyPublisher(addr string, every int, obs *cli.Obs, stderr io.Writer) *policyPublisher {
	return &policyPublisher{
		client:      policysync.NewClient(addr, netretry.Options{Registry: obs.Registry, Tracer: obs.Tracer}),
		stderr:      stderr,
		every:       every,
		publishedAt: -1,
		results:     make(chan pubResult, 1),
	}
}

// maybePublish starts a background publish when at least `every` update
// stages ran since the last successful one and no ship is already in
// flight. It never blocks the training loop.
func (p *policyPublisher) maybePublish(tr *core.Trainer) {
	p.reap(false)
	if p.busy {
		return
	}
	updates := tr.UpdateCount()
	if p.publishedAt >= 0 && updates-p.publishedAt < p.every {
		return
	}
	// Encode on the training goroutine (the networks are only quiescent
	// here) into a fresh frame the shipper owns outright.
	frame, err := policysync.EncodeSnapshot(nil, uint64(updates), tr.ActorNetworks())
	if err != nil {
		p.noteFailure(err, false)
		return
	}
	p.busy = true
	go func() {
		v, err := p.client.Publish(frame)
		p.results <- pubResult{version: v, updates: updates, err: err}
	}()
}

// reap collects a finished background publish, blocking for an in-flight
// one when block is set (the sync path uses that to keep versions ordered).
func (p *policyPublisher) reap(block bool) {
	if !p.busy {
		return
	}
	if block {
		p.handle(<-p.results)
		return
	}
	select {
	case r := <-p.results:
		p.handle(r)
	default:
	}
}

func (p *policyPublisher) handle(r pubResult) {
	p.busy = false
	if r.err != nil {
		p.noteFailure(r.err, false)
		return
	}
	p.noteSuccess(r.updates)
}

func (p *policyPublisher) noteFailure(err error, quiet bool) {
	if !p.failing {
		p.failing = true
		p.failingSince = time.Now()
		if !quiet {
			fmt.Fprintln(p.stderr, "warning: policy publish failed (will keep retrying):", err)
		}
	}
	p.lastErr = err
}

// noteSuccess advances the cadence cursor and closes any open outage
// window.
func (p *policyPublisher) noteSuccess(updates int) {
	if p.failing && p.onOutageEnd != nil {
		unpublished := updates - p.publishedAt
		if p.publishedAt < 0 {
			unpublished = updates
		}
		p.onOutageEnd(outageWindow{
			Event: "outage", Edge: "policy_publish",
			Start: p.failingSince, End: time.Now(),
			Updates: unpublished,
			Error:   fmt.Sprint(p.lastErr),
		})
	}
	p.failing = false
	p.publishedAt = updates
}

// publish synchronously encodes and ships the current actor networks,
// returning the serving version the policy service assigned. Used for the
// initial and final publishes, where blocking is the point; any in-flight
// background ship is drained first so versions reach the service in order.
func (p *policyPublisher) publish(tr *core.Trainer) (uint64, error) {
	p.reap(true)
	updates := tr.UpdateCount()
	frame, err := policysync.EncodeSnapshot(p.frame[:0], uint64(updates), tr.ActorNetworks())
	if err != nil {
		return 0, err
	}
	p.frame = frame
	v, err := p.client.Publish(frame)
	if err != nil {
		// The call sites warn with their own context; just keep the
		// outage window honest.
		p.noteFailure(err, true)
		return 0, err
	}
	p.noteSuccess(updates)
	return v, nil
}

// openOutage reports the still-failing window at exit, if any.
func (p *policyPublisher) openOutage(tr *core.Trainer) (outageWindow, bool) {
	if !p.failing {
		return outageWindow{}, false
	}
	w := outageWindow{
		Event: "outage", Edge: "policy_publish",
		Start:   p.failingSince,
		Updates: tr.UpdateCount() - p.publishedAt,
		Error:   fmt.Sprint(p.lastErr),
	}
	if p.publishedAt < 0 {
		w.Updates = tr.UpdateCount()
	}
	return w, true
}

// resumeFromStore restores the trainer and its replay experience from the
// newest intact snapshot generation, falling back past corrupt ones. A
// missing directory or an empty store starts fresh; a store whose every
// generation is corrupt is a hard error (the operator should look before
// training blows the evidence away).
func resumeFromStore(store *resilience.Store, tr *core.Trainer, stdout, stderr io.Writer) int {
	snap, seq, skipped, err := store.LoadLatest()
	for _, g := range skipped {
		fmt.Fprintf(stderr, "warning: skipping corrupt snapshot %v\n", g)
		tr.Profile().Event(profiler.EventResumeFallback, 1)
	}
	switch {
	case err == nil:
	case errors.Is(err, resilience.ErrNoSnapshot) && len(skipped) == 0:
		fmt.Fprintf(stdout, "no snapshot in %s; starting fresh\n", store.Dir())
		return cli.ExitOK
	default:
		fmt.Fprintln(stderr, "resume:", err)
		return cli.ExitError
	}
	if err := tr.RestoreSnapshot(snap); err != nil {
		fmt.Fprintf(stderr, "resume: generation %d: %v\n", seq, err)
		return cli.ExitError
	}
	fmt.Fprintf(stdout, "resumed from generation %d (%d episodes, %d steps, %d updates, %d stored transitions)\n",
		seq, tr.EpisodeCount(), tr.TotalSteps(), tr.UpdateCount(), tr.Buffer().Len())
	return cli.ExitOK
}

// saveSnapshot writes the trainer's snapshot as one atomic, CRC-protected
// generation keyed by episode count.
func saveSnapshot(store *resilience.Store, tr *core.Trainer) error {
	sections, err := tr.SnapshotSections()
	if err != nil {
		return err
	}
	if _, err := store.Save(uint64(tr.EpisodeCount()), sections); err != nil {
		return err
	}
	tr.Profile().Event(profiler.EventCheckpointWritten, 1)
	return nil
}

// attachTrainer points the trainer at whatever the flags enabled: the
// tracer, the phase histograms behind /metrics, and a listener that logs each
// update event and mirrors it into the run gauges.
func attachTrainer(obs *cli.Obs, tr *core.Trainer) {
	tr.SetTracer(obs.Tracer)
	if !obs.Serving() && !obs.Logging() {
		return
	}
	if obs.Serving() {
		tr.SetPhaseObserver(telemetry.NewPhaseCollector(obs.Registry))
	}
	var (
		steps    = obs.Registry.Gauge("marl_env_steps")
		updates  = obs.Registry.Gauge("marl_updates")
		episodes = obs.Registry.Gauge("marl_episodes")
		reward   = obs.Registry.Gauge("marl_episode_reward")
		td       = obs.Registry.Gauge("marl_td_mean")
	)
	tr.SetUpdateListener(func(ev core.UpdateEvent) {
		obs.Log(ev)
		steps.Set(float64(ev.Step))
		updates.Set(float64(ev.Update))
		episodes.Set(float64(ev.Episode))
		reward.Set(ev.EpisodeReward)
		td.Set(ev.TDMean)
	})
}

// refreshObs republishes /profilez from the trainer's profile and flushes
// the run log. Call where the trainer is quiescent (an episode boundary).
func refreshObs(obs *cli.Obs, tr *core.Trainer) {
	if obs.Serving() {
		if data, err := json.Marshal(tr.Profile()); err == nil {
			obs.Profilez.Set(data)
		}
	}
	obs.FlushLog()
}

// writeProfileJSON dumps the final phase profile in the same shape /profilez
// serves.
func writeProfileJSON(tr *core.Trainer, path string) error {
	data, err := json.Marshal(tr.Profile())
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeBareCheckpoint replaces path atomically: a crash or a failed write
// mid-save leaves the previous checkpoint there intact.
func writeBareCheckpoint(tr *core.Trainer, path string) error {
	if err := resilience.WriteFileAtomic(path, tr.SaveCheckpoint); err != nil {
		return fmt.Errorf("saving checkpoint: %w", err)
	}
	return nil
}
