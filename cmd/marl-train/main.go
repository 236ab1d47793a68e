// Command marl-train trains one MARL configuration end to end and reports
// reward progress plus the phase-time breakdown.
//
// Usage:
//
//	marl-train -env pp -algo maddpg -agents 6 -episodes 200 -sampler locality -neighbors 16 -refs 64
//
// Long runs survive crashes and divergence: -checkpoint-dir enables periodic
// crash-safe snapshots (trainer + replay buffer + RNG state, CRC-protected,
// rotated), -resume restarts from the newest intact generation, and the
// divergence watchdog (on by default) rolls back to the last healthy state
// when training goes non-finite or stalls.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"marlperf"
	"marlperf/internal/core"
	"marlperf/internal/expserve"
	"marlperf/internal/expshard"
	"marlperf/internal/mpe"
	"marlperf/internal/plot"
	"marlperf/internal/policysync"
	"marlperf/internal/profiler"
	"marlperf/internal/replay"
	"marlperf/internal/resilience"
	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

// Exit codes (documented in -h output).
const (
	exitOK          = 0 // training completed
	exitError       = 1 // runtime failure
	exitUsage       = 2 // bad command line
	exitInterrupted = 3 // SIGINT/SIGTERM; final snapshot was written
)

func main() { os.Exit(run()) }

func run() int {
	var (
		envName   = flag.String("env", "cn", "environment: pp (predator-prey), cn (cooperative navigation), pd (physical deception)")
		algoName  = flag.String("algo", "maddpg", "algorithm: maddpg or matd3")
		agents    = flag.Int("agents", 3, "number of trainable agents")
		episodes  = flag.Int("episodes", 100, "episodes to train")
		sampler   = flag.String("sampler", "uniform", "sampler: uniform, locality, per, ip")
		neighbors = flag.Int("neighbors", 16, "locality sampler: neighbor run length")
		refs      = flag.Int("refs", 64, "locality sampler: reference points")
		batch     = flag.Int("batch", 1024, "mini-batch size")
		buffer    = flag.Int("buffer", 100_000, "replay capacity")
		kvLayout  = flag.Bool("kv", false, "enable key-value data-layout reorganization")
		workers   = flag.Int("workers", 0, "update-stage worker pool size (0: GOMAXPROCS); any value is bit-identical for a fixed seed")
		seed      = flag.Int64("seed", 1, "RNG seed")
		logEvery  = flag.Int("log-every", 20, "episodes between progress lines")
		savePath  = flag.String("save", "", "write a bare checkpoint here after training")
		loadPath  = flag.String("load", "", "restore a bare checkpoint before training")
		evalEps   = flag.Int("eval", 0, "greedy evaluation episodes after training")
		render    = flag.Bool("render", false, "render the final world state as ASCII")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus), /profilez, /tracez, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
		runlogPath  = flag.String("runlog", "", "append one JSONL run-event record per update step to this file")

		traceOn     = flag.Bool("trace", false, "record distributed-trace spans for sampled update stages; costs nothing when off")
		traceSample = flag.Int("trace-sample", 1, "with -trace: trace every Nth update stage")
		traceBuf    = flag.Int("trace-buf", trace.DefaultCapacity, "with -trace: span ring-buffer capacity in records (oldest evicted first)")
		traceOut    = flag.String("trace-out", "", "with -trace: write the recorded spans as Chrome trace JSON to this file at exit")
		profileJSON = flag.String("profile-json", "", "write the final phase profile as JSON to this file at exit")

		replayAddr  = flag.String("replay-addr", "", "use a remote experience service (marl-replayd) instead of the in-process buffer: a replay fabric spec of comma-separated shard groups, each a pipe-separated replica list (\"h:9300\" is one shard, \"h1:9300|h1:9301,h2:9300|h2:9301\" two shards at R=2)")
		actorID     = flag.String("actor-id", "learner-0", "append-stream id for experience this learner collects itself (with -replay-addr)")
		replayRetry = flag.Duration("replay-retry", 2*time.Minute, "ride out an experience-service outage this long (retries with backoff) before failing the run")
		sampleConns = flag.Int("sample-conns", 4, "persistent connections striping sample/append traffic to the experience service (with -replay-addr)")
		prefetch    = flag.Bool("prefetch", false, "overlap next-update sample RPCs with gradient compute (with -replay-addr); bit-identical on or off")
		spoolDir    = flag.String("spool-dir", "", "spool self-collected experience here while the experience service (or a fabric member) is unreachable; drained in order on recovery (with -replay-addr)")

		policyAddr  = flag.String("policy-publish-addr", "", "publish actor weights to a policy service (marl-policyd) at this address")
		policyEvery = flag.Int("policy-publish-every", 1, "update stages between policy publishes (with -policy-publish-addr)")

		checkpointDir   = flag.String("checkpoint-dir", "", "directory for crash-safe snapshot generations (enables resumable runs)")
		checkpointEvery = flag.Int("checkpoint-every", 25, "episodes between periodic snapshots (0: only the final one)")
		resume          = flag.Bool("resume", false, "resume from the newest intact snapshot in -checkpoint-dir")
		retain          = flag.Int("retain", 3, "snapshot generations to keep")
		watchdogOn      = flag.Bool("watchdog", true, "roll back to the last healthy state on NaN/Inf divergence or stalls")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `Usage: marl-train [flags]

Trains one MARL configuration end to end and reports reward progress plus
the phase-time breakdown. With -checkpoint-dir the run is resumable: it
writes CRC-protected snapshot generations atomically and -resume restarts
from the newest intact one, skipping truncated or corrupt generations.

With -replay-addr the learner samples from (and publishes to) a remote
experience service (marl-replayd) instead of its in-process buffer. For a
single learner and a fixed seed this trains bit-identically to the local
run, because sampling is a pure function of (plan, length, seed) on
either side.

-replay-addr is a replay fabric spec: comma-separated shard groups, each
a pipe-separated list of replica replayd addresses ("h:9300" is one
shard, "h1:9300|h1:9301,h2:9300|h2:9301" is 2 shards at R=2).
Experience is time-striped across groups by a consistent-hash ring,
appends replicate to every member of the owning group, and each draw
executes server-side on all shards and merges deterministically — at
R=1 with all shards live, training stays bit-identical to the local run
at any shard count. A down member is served from its replicas; a fully
down group is skipped with the draw reweighted (counted, never silent).

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

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()

	var env marlperf.Env
	switch *envName {
	case "pp":
		env = marlperf.NewPredatorPrey(*agents)
	case "cn":
		env = marlperf.NewCooperativeNavigation(*agents)
	case "pd":
		env = marlperf.NewPhysicalDeception(*agents)
	default:
		fmt.Fprintf(os.Stderr, "unknown env %q (want pp, cn or pd)\n", *envName)
		return exitUsage
	}

	algo := marlperf.MADDPG
	if *algoName == "matd3" {
		algo = marlperf.MATD3
	} else if *algoName != "maddpg" {
		fmt.Fprintf(os.Stderr, "unknown algo %q (want maddpg or matd3)\n", *algoName)
		return exitUsage
	}

	cfg := marlperf.DefaultConfig(algo)
	cfg.BatchSize = *batch
	cfg.BufferCapacity = *buffer
	cfg.UseKVLayout = *kvLayout
	cfg.UpdateWorkers = *workers
	cfg.Seed = *seed
	cfg.Neighbors = *neighbors
	cfg.Refs = *refs
	switch *sampler {
	case "uniform":
		cfg.Sampler = marlperf.SamplerUniform
	case "locality":
		cfg.Sampler = marlperf.SamplerLocality
	case "per":
		cfg.Sampler = marlperf.SamplerPER
	case "ip":
		cfg.Sampler = marlperf.SamplerIPLocality
	default:
		fmt.Fprintf(os.Stderr, "unknown sampler %q\n", *sampler)
		return exitUsage
	}
	if *resume && *checkpointDir == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -checkpoint-dir")
		return exitUsage
	}
	if *replayAddr != "" && (*resume || *loadPath != "") {
		fmt.Fprintln(os.Stderr, "-replay-addr starts a fresh run; it cannot be combined with -resume or -load")
		return exitUsage
	}
	if *checkpointDir != "" && *retain < 1 {
		fmt.Fprintf(os.Stderr, "-retain %d: want ≥1\n", *retain)
		return exitUsage
	}
	if *policyEvery < 1 {
		fmt.Fprintf(os.Stderr, "-policy-publish-every %d: want ≥1\n", *policyEvery)
		return exitUsage
	}
	if *traceOut != "" && !*traceOn {
		fmt.Fprintln(os.Stderr, "-trace-out requires -trace")
		return exitUsage
	}
	if *traceSample < 1 {
		fmt.Fprintf(os.Stderr, "-trace-sample %d: want ≥1\n", *traceSample)
		return exitUsage
	}

	// One registry for the whole process: trainer phase metrics, the two
	// network clients' retry/circuit series, and the run-info gauge all
	// land on the same /metrics page.
	registry := telemetry.NewRegistry()

	// The tracer exists only when asked for: a nil *trace.Tracer is inert
	// (every method no-ops without allocating), so untraced runs pay nothing.
	var tracer *trace.Tracer
	if *traceOn {
		tracer = trace.New("learner", *traceBuf)
		tracer.SetSampleEvery(uint64(*traceSample))
		tracer.SetEnabled(true)
		fmt.Printf("tracing: sampling 1 in %d update stages into a %d-record ring\n", *traceSample, *traceBuf)
	}

	tr, err := marlperf.NewTrainer(cfg, env)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	defer tr.Close()
	tr.SetTracer(tracer)
	var fabric *expserve.Fabric
	if *replayAddr != "" {
		fabric, err = wireExperienceService(tr, cfg, env, *replayAddr, *actorID, *replayRetry, *sampleConns, *prefetch, *spoolDir, registry, tracer)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitError
		}
		fmt.Printf("experience fabric: %s (plan=%s, actor-id=%s, conns=%d, prefetch=%v)\n",
			expshard.FormatTopology(fabric.Snapshot()), *sampler, *actorID, *sampleConns, *prefetch)
	}
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitError
		}
		loadErr := tr.LoadCheckpoint(f)
		f.Close()
		if loadErr != nil {
			fmt.Fprintln(os.Stderr, "loading checkpoint:", loadErr)
			return exitError
		}
		fmt.Printf("restored checkpoint from %s (%d steps, %d updates)\n", *loadPath, tr.TotalSteps(), tr.UpdateCount())
	}

	tel, err := setupTelemetry(tr, registry, *metricsAddr, *runlogPath, tracer, telemetryInfo{
		algo: *algoName, env: env.Name(), sampler: *sampler,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	defer tel.close()
	if tel.server != nil {
		fmt.Printf("telemetry: serving /metrics on http://%s\n", tel.server.Addr())
	}

	var store *resilience.Store
	if *checkpointDir != "" {
		store, err = resilience.NewStore(*checkpointDir, *retain)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitError
		}
		store.Retry.OnRetry = func(attempt int, err error) {
			tr.Profile().Event(profiler.EventCheckpointRetried, 1)
			fmt.Fprintf(os.Stderr, "warning: snapshot write attempt %d failed, retrying: %v\n", attempt, err)
		}
	}
	if *resume {
		if code := resumeFromStore(store, tr); code != exitOK {
			return code
		}
	}

	// Policy publisher: push actor weights after resume/load so subscribers
	// never see a staler policy than the learner is actually training.
	var pub *policyPublisher
	if *policyAddr != "" {
		pub = newPolicyPublisher(*policyAddr, *policyEvery, registry, tracer)
		pub.onOutageEnd = func(w outageWindow) {
			fmt.Fprintf(os.Stderr, "policy publish recovered after %v (%d updates ran unpublished)\n",
				w.End.Sub(w.Start).Round(time.Millisecond), w.Updates)
			tel.recordOutage(w)
		}
		if v, err := pub.publish(tr); err != nil {
			fmt.Fprintln(os.Stderr, "warning: initial policy publish failed:", err)
		} else {
			fmt.Printf("policy service: publishing to %s every %d updates (initial version v%d)\n",
				*policyAddr, *policyEvery, v)
		}
	}

	var wd *core.Watchdog
	if *watchdogOn {
		wd, err = core.NewWatchdog(tr, core.WatchdogConfig{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitError
		}
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	fmt.Printf("training %s on %s with %d agents, sampler=%s, batch=%d, %d episodes\n",
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
			fmt.Fprintln(os.Stderr, "experience service:", err)
			return exitError
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
			fmt.Printf("episode %6d  mean reward %10.2f  updates %d  elapsed %v\n",
				ep, mean, tr.UpdateCount(), time.Since(start).Round(time.Millisecond))
			window, count = 0, 0
		}
		tel.refresh(tr)
		if wd != nil {
			ev, err := wd.Observe()
			if err != nil {
				fmt.Fprintln(os.Stderr, "watchdog:", err)
				return exitError
			}
			if ev != nil {
				fmt.Fprintf(os.Stderr, "watchdog: rolled back to episode %d: %v\n", ev.Episode, ev.Reason)
			}
		}
		if store != nil && *checkpointEvery > 0 && completed%*checkpointEvery == 0 {
			if err := saveSnapshot(store, tr); err != nil {
				// The store already retried; a persistent failure should not
				// kill a healthy training run, but it must be loud.
				fmt.Fprintln(os.Stderr, "warning: periodic snapshot failed:", err)
			}
		}
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "\n%v: episode finished, writing final snapshot\n", sig)
			interrupted = true
		default:
		}
	}
	// Push any experience still buffered in the sink before reporting: the
	// service must end the run holding every row this process collected.
	if fabric != nil {
		if err := tr.FlushExperience(); err != nil {
			fmt.Fprintln(os.Stderr, "final experience flush:", err)
			return exitError
		}
		// One greppable line for the smoke harnesses: how often the fabric
		// left the happy path.
		fmt.Printf("shard fabric: replica_reads=%d degraded_draws=%d\n",
			fabric.ReplicaReads(), fabric.DegradedDraws())
	}
	if store != nil {
		if err := saveSnapshot(store, tr); err != nil {
			fmt.Fprintln(os.Stderr, "final snapshot:", err)
			return exitError
		}
		fmt.Printf("snapshot generation %d written to %s\n", tr.EpisodeCount(), store.Dir())
	}
	if pub != nil {
		// Terminal publish: actors keep acting after the learner exits; they
		// should do it on the final weights.
		if v, err := pub.publish(tr); err != nil {
			fmt.Fprintln(os.Stderr, "warning: final policy publish failed:", err)
		} else {
			fmt.Printf("policy: published final version v%d (%d updates)\n", v, tr.UpdateCount())
		}
		// An outage still open at exit never saw a recovery edge; surface
		// the window as open-ended so the run log accounts for every gap.
		if w, open := pub.openOutage(tr); open {
			fmt.Fprintf(os.Stderr, "policy publish still failing at exit (outage began %v ago; %d updates unpublished)\n",
				time.Since(w.Start).Round(time.Millisecond), w.Updates)
			tel.recordOutage(w)
		}
	}

	tel.refresh(tr)

	fmt.Printf("\n%s after %v (%d env steps, %d updates, %d episodes total)\n\n",
		map[bool]string{false: "done", true: "interrupted"}[interrupted],
		time.Since(start).Round(time.Millisecond), tr.TotalSteps(), tr.UpdateCount(), tr.EpisodeCount())
	if len(curve) > 1 {
		fmt.Printf("reward trend: %s\n\n", plot.Sparkline(curve))
	}
	fmt.Print(tr.Profile().Report())

	if !interrupted && *evalEps > 0 {
		fmt.Printf("\ngreedy evaluation over %d episodes: mean reward %.2f\n", *evalEps, tr.Evaluate(*evalEps))
	}
	if *render {
		if w, ok := env.(interface{ World() *mpe.World }); ok {
			fmt.Println("\nfinal world state (P=predator/adversary, p=prey, A=agent, o=landmark):")
			fmt.Print(mpe.RenderASCII(w.World(), 60, 1.5))
		}
	}
	if *savePath != "" {
		if err := writeBareCheckpoint(tr, *savePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitError
		}
		fmt.Printf("checkpoint written to %s\n", *savePath)
	}
	if *profileJSON != "" {
		if err := writeProfileJSON(tr, *profileJSON); err != nil {
			fmt.Fprintln(os.Stderr, "writing profile JSON:", err)
			return exitError
		}
		fmt.Printf("phase profile written to %s\n", *profileJSON)
	}
	if tracer != nil && *traceOut != "" {
		if err := writeTraceJSON(tracer, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "writing trace:", err)
			return exitError
		}
		fmt.Printf("trace written to %s (%d spans, %d dropped)\n", *traceOut, tracer.Len(), tracer.Dropped())
	}
	if interrupted {
		return exitInterrupted
	}
	return exitOK
}

// wireExperienceService connects the trainer to a remote experience
// service for both halves of the split: mini-batches are sampled
// server-side with the trainer's per-batch seeds (bit-identical to the
// in-process sampler of the same name for the same collected rows), and
// everything this learner collects itself is published back under
// actorID so the service's row count gates updates exactly as a local
// buffer would.
func wireExperienceService(tr *marlperf.Trainer, cfg marlperf.Config, env marlperf.Env, addr, actorID string, retryFor time.Duration, conns int, prefetch bool, spoolDir string, reg *telemetry.Registry, tracer *trace.Tracer) (*expserve.Fabric, error) {
	plan, err := cfg.SamplePlan()
	if err != nil {
		return nil, err
	}
	spec := replay.Spec{
		NumAgents: env.NumAgents(),
		ObsDims:   env.ObsDims(),
		ActDim:    env.NumActions(),
		Capacity:  cfg.BufferCapacity,
	}

	// The sampler fans one draw in across every shard group and the sink
	// fans replicated appends out. Each member gets a short per-request
	// deadline so a dead replica fails over fast; -replay-retry bounds how
	// long a draw or an unspooled append rides a whole-group outage.
	groups, err := expshard.ParseSpec(addr)
	if err != nil {
		return nil, err
	}
	fabric, err := expserve.NewFabric(groups, expserve.FabricOptions{
		Client: expserve.ClientOptions{
			Registry: reg,
			Conns:    conns,
			Tracer:   tracer,
		},
		RetryFor: retryFor,
		Registry: reg,
		Tracer:   tracer,
	})
	if err != nil {
		return nil, err
	}
	src, err := expserve.NewShardedSource(fabric, spec, plan)
	if err != nil {
		return nil, err
	}
	var source replay.TransitionSource = src
	if prefetch {
		source = expserve.NewPrefetchSource(src, conns, reg)
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
	return fabric, tr.SetExperienceService(source, sink)
}

// policyPublisher pushes the learner's actor weights to a policy service at
// a fixed update-stage cadence. Failures warn (once per outage streak)
// instead of stopping training: distribution is best-effort, actors keep
// acting on the last version they fetched.
type policyPublisher struct {
	client      *policysync.Client
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

func newPolicyPublisher(addr string, every int, reg *telemetry.Registry, tracer *trace.Tracer) *policyPublisher {
	return &policyPublisher{
		client:      policysync.NewClient(addr, policysync.ClientOptions{Registry: reg, Tracer: tracer}),
		every:       every,
		publishedAt: -1,
		results:     make(chan pubResult, 1),
	}
}

// maybePublish starts a background publish when at least `every` update
// stages ran since the last successful one and no ship is already in
// flight. It never blocks the training loop.
func (p *policyPublisher) maybePublish(tr *marlperf.Trainer) {
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
			fmt.Fprintln(os.Stderr, "warning: policy publish failed (will keep retrying):", err)
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
func (p *policyPublisher) publish(tr *marlperf.Trainer) (uint64, error) {
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
func (p *policyPublisher) openOutage(tr *marlperf.Trainer) (outageWindow, bool) {
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

// resumeFromStore restores trainer, replay experience and RNG state from the
// newest intact snapshot generation, falling back past corrupt ones. A
// missing directory or an empty store starts fresh; a store whose every
// generation is corrupt is a hard error (the operator should look before
// training blows the evidence away).
func resumeFromStore(store *resilience.Store, tr *marlperf.Trainer) int {
	snap, seq, skipped, err := store.LoadLatest()
	for _, g := range skipped {
		fmt.Fprintf(os.Stderr, "warning: skipping corrupt snapshot %v\n", g)
		tr.Profile().Event(profiler.EventResumeFallback, 1)
	}
	switch {
	case err == nil:
	case errors.Is(err, resilience.ErrNoSnapshot) && len(skipped) == 0:
		fmt.Printf("no snapshot in %s; starting fresh\n", store.Dir())
		return exitOK
	default:
		fmt.Fprintln(os.Stderr, "resume:", err)
		return exitError
	}

	payload, ok := snap.Section(resilience.SectionTrainer)
	if !ok {
		fmt.Fprintf(os.Stderr, "resume: generation %d has no trainer section\n", seq)
		return exitError
	}
	if err := tr.LoadCheckpoint(bytes.NewReader(payload)); err != nil {
		fmt.Fprintln(os.Stderr, "resume: trainer:", err)
		return exitError
	}
	if payload, ok = snap.Section(resilience.SectionReplay); ok {
		buf, err := replay.ReadBuffer(bytes.NewReader(payload))
		if err != nil {
			fmt.Fprintln(os.Stderr, "resume: replay buffer:", err)
			return exitError
		}
		if err := tr.RestoreExperience(buf); err != nil {
			fmt.Fprintln(os.Stderr, "resume:", err)
			return exitError
		}
	}
	if payload, ok = snap.Section(resilience.SectionRunState); ok {
		if err := tr.LoadRunState(bytes.NewReader(payload)); err != nil {
			fmt.Fprintln(os.Stderr, "resume: run state:", err)
			return exitError
		}
	}
	fmt.Printf("resumed from generation %d (%d episodes, %d steps, %d updates, %d stored transitions)\n",
		seq, tr.EpisodeCount(), tr.TotalSteps(), tr.UpdateCount(), tr.Buffer().Len())
	return exitOK
}

// saveSnapshot bundles the trainer checkpoint, replay buffer and run state
// into one atomic, CRC-protected snapshot generation keyed by episode count.
func saveSnapshot(store *resilience.Store, tr *marlperf.Trainer) error {
	var trainerBuf, replayBuf, runBuf bytes.Buffer
	if err := tr.SaveCheckpoint(&trainerBuf); err != nil {
		return err
	}
	if _, err := tr.Buffer().WriteTo(&replayBuf); err != nil {
		return err
	}
	if err := tr.SaveRunState(&runBuf); err != nil {
		return err
	}
	if _, err := store.Save(uint64(tr.EpisodeCount()), []resilience.Section{
		{Kind: resilience.SectionTrainer, Payload: trainerBuf.Bytes()},
		{Kind: resilience.SectionReplay, Payload: replayBuf.Bytes()},
		{Kind: resilience.SectionRunState, Payload: runBuf.Bytes()},
	}); err != nil {
		return err
	}
	tr.Profile().Event(profiler.EventCheckpointWritten, 1)
	return nil
}

// telemetryInfo labels the run-info gauge.
type telemetryInfo struct {
	algo, env, sampler string
}

// telemetryState bundles the optional live-observability wiring: the
// metrics registry + HTTP server behind -metrics-addr and the JSONL run
// log behind -runlog. The zero value (both flags empty) is inert.
type telemetryState struct {
	registry *telemetry.Registry
	server   *telemetry.Server
	profSnap *telemetry.JSONSnapshot
	runLog   *telemetry.RunLog

	runLogErrOnce bool
}

// setupTelemetry builds whatever the flags enable and attaches the phase
// observer and per-update listener to the trainer. reg is the process-wide
// registry (network clients already report into it); the /metrics server
// only starts when metricsAddr is set.
func setupTelemetry(tr *marlperf.Trainer, reg *telemetry.Registry, metricsAddr, runlogPath string, tracer *trace.Tracer, info telemetryInfo) (*telemetryState, error) {
	tel := &telemetryState{}
	if metricsAddr != "" {
		tel.registry = reg
		tr.SetPhaseObserver(telemetry.NewPhaseCollector(tel.registry))
		tel.profSnap = &telemetry.JSONSnapshot{}
		tel.registry.SetHelp("marl_run_info", "Constant 1, labelled with the run's workload identity.")
		tel.registry.Gauge("marl_run_info",
			"algo", info.algo, "env", info.env, "sampler", info.sampler).Set(1)
		srvCfg := telemetry.ServerConfig{
			Registry: tel.registry,
			Profilez: tel.profSnap,
		}
		if tracer != nil {
			srvCfg.Tracez = tracer.Handler()
		}
		srv, err := telemetry.StartServer(metricsAddr, srvCfg)
		if err != nil {
			return nil, err
		}
		tel.server = srv
	}
	if runlogPath != "" {
		l, err := telemetry.CreateRunLog(runlogPath)
		if err != nil {
			if tel.server != nil {
				tel.server.Close()
			}
			return nil, err
		}
		tel.runLog = l
	}
	if tel.registry == nil && tel.runLog == nil {
		return tel, nil
	}

	var gSteps, gUpdates, gEpisodes, gReward, gTD *telemetry.Gauge
	if tel.registry != nil {
		gSteps = tel.registry.Gauge("marl_env_steps")
		gUpdates = tel.registry.Gauge("marl_updates")
		gEpisodes = tel.registry.Gauge("marl_episodes")
		gReward = tel.registry.Gauge("marl_episode_reward")
		gTD = tel.registry.Gauge("marl_td_mean")
	}
	tr.SetUpdateListener(func(ev core.UpdateEvent) {
		if tel.runLog != nil {
			if err := tel.runLog.Append(ev); err != nil && !tel.runLogErrOnce {
				tel.runLogErrOnce = true
				fmt.Fprintln(os.Stderr, "warning: run log append failed:", err)
			}
		}
		if tel.registry != nil {
			gSteps.Set(float64(ev.Step))
			gUpdates.Set(float64(ev.Update))
			gEpisodes.Set(float64(ev.Episode))
			gReward.Set(ev.EpisodeReward)
			gTD.Set(ev.TDMean)
		}
	})
	return tel, nil
}

// recordOutage appends one publish-outage window to the run log (when one
// is armed), so post-hoc analysis can align reward dips with distribution
// gaps. Safe on the zero value.
func (tel *telemetryState) recordOutage(w outageWindow) {
	if tel.runLog == nil {
		return
	}
	if err := tel.runLog.Append(w); err != nil && !tel.runLogErrOnce {
		tel.runLogErrOnce = true
		fmt.Fprintln(os.Stderr, "warning: run log append failed:", err)
	}
}

// refresh republishes the /profilez snapshot and pushes buffered run-log
// records to disk; called at episode boundaries (trainer quiescent).
func (tel *telemetryState) refresh(tr *marlperf.Trainer) {
	if tel.profSnap != nil {
		if data, err := json.Marshal(tr.Profile()); err == nil {
			tel.profSnap.Set(data)
		}
	}
	if tel.runLog != nil {
		if err := tel.runLog.Flush(); err != nil && !tel.runLogErrOnce {
			tel.runLogErrOnce = true
			fmt.Fprintln(os.Stderr, "warning: run log flush failed:", err)
		}
	}
}

// close tears the telemetry down; safe on the zero value.
func (tel *telemetryState) close() {
	if tel.runLog != nil {
		if err := tel.runLog.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "warning: run log close:", err)
		}
	}
	if tel.server != nil {
		tel.server.Close()
	}
}

// writeProfileJSON dumps the final phase profile in the same shape /profilez
// serves, so marl-trace can reconcile span sums against it offline.
func writeProfileJSON(tr *marlperf.Trainer, path string) error {
	data, err := json.Marshal(tr.Profile())
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTraceJSON dumps the span ring as Chrome trace JSON, the same document
// /tracez serves.
func writeTraceJSON(tracer *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeBareCheckpoint(tr *marlperf.Trainer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.SaveCheckpoint(f); err != nil {
		f.Close()
		return fmt.Errorf("saving checkpoint: %w", err)
	}
	return f.Close()
}
