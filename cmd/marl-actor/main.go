// Command marl-actor is the acting half of the distributed MARL loop: a
// vectorized rollout engine stepping -envs environments at once, publishing
// every transition to an experience service (marl-replayd) and hot-swapping
// its acting policy from a policy service (marl-policyd) between env steps.
// Run any number of actors against one replayd/policyd pair, each under a
// distinct -actor-id and -first-env, and point a learner at the same pair
// with marl-train -replay-addr/-policy-publish-addr to close the loop:
// learner → policyd → N actors → replayd → learner.
//
// Usage:
//
//	marl-actor -replay-addr 127.0.0.1:9300 -policy-addr 127.0.0.1:9400 \
//	  -env cn -agents 3 -envs 8 -actor-id actor-0 -episodes 500
//
// Transitions ship in batches carrying the actor ID and a monotonic
// sequence number, so a retried append that already landed is deduplicated
// server-side rather than doubling experience. Without -policy-addr the
// actor acts with its (optionally -load-ed) policy forever; with it, the
// actor checks for a newer published version every -sync-every engine steps
// and swaps it in whole, bounding acting staleness by the sync cadence.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"marlperf/internal/cli"
	"marlperf/internal/core"
	"marlperf/internal/expserve"
	"marlperf/internal/expshard"
	"marlperf/internal/mpe"
	"marlperf/internal/netretry"
	"marlperf/internal/nn"
	"marlperf/internal/policysync"
	"marlperf/internal/profiler"
	"marlperf/internal/rollout"
)

const usage = `Usage: marl-actor [flags]

Steps a vector of environments under the newest published policy and
streams every transition to an experience service. Appends are idempotent
per (actor-id, batch sequence) and retried with jittered backoff when the
service answers 429; policy fetches long-poll marl-policyd and hot-swap
the acting networks atomically between env steps, so acting staleness is
bounded by -sync-every instead of unbounded.

Exit codes:
  0  collection completed
  1  runtime failure (environment, service unreachable after retries)
  2  bad command line
  3  interrupted by SIGINT/SIGTERM; buffered transitions were flushed
`

func main() { cli.Main(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := cli.NewFlagSet("marl-actor", usage, stderr)
	var (
		replayAddr = fs.String("replay-addr", "127.0.0.1:9300", "replay fabric spec (marl-replayd addresses): comma-separated shard groups, each a pipe-separated replica list (\"h:9300\" is one shard, \"h1:9300|h1:9301,h2:9300\" two shards, the first at R=2)")
		policyAddr = fs.String("policy-addr", "", "policy service address (marl-policyd); empty acts with the -load/fresh policy forever")
		actorID    = fs.String("actor-id", "actor-0", "unique id for this actor's idempotent append stream")
		envName    = fs.String("env", "cn", "environment: pp, cn or pd (must match the service)")
		agents     = fs.Int("agents", 3, "number of trainable agents (must match the service)")
		algoName   = fs.String("algo", "maddpg", "algorithm whose policy network acts: maddpg or matd3")
		envs       = fs.Int("envs", 1, "environments stepped per engine step (vectorized acting)")
		firstEnv   = fs.Int("first-env", 0, "global index of this actor's first env (give actor k of a fleet k*envs)")
		syncEvery  = fs.Int("sync-every", 25, "engine steps between policy version checks")
		policyWait = fs.Duration("policy-wait", time.Minute, "how long to wait for the first published policy before acting with the local one")
		episodes   = fs.Int("episodes", 100, "episodes to collect (0: run until signalled)")
		seed       = fs.Int64("seed", 1, "RNG seed (per-env streams derive from it and -first-env)")
		loadPath   = fs.String("load", "", "act with this policy checkpoint until the service publishes a newer one")
		batchRows  = fs.Int("batch-rows", 512, "transitions per shipped append batch")
		logEvery   = fs.Int("log-every", 20, "episodes between progress lines")
		spoolDir   = fs.String("spool-dir", "", "spool experience batches here (one subdirectory per fabric member) while the experience service is unreachable; drained in order on recovery (empty: outages fail the actor)")
		spoolMaxMB = fs.Int("spool-max-mb", 1024, "spool size cap in MiB; a full spool stops collection instead of filling the disk")
		maxStale   = fs.Duration("max-staleness", 0, "pause collection when the policy service has been silent this long (0: act on the last snapshot indefinitely)")
	)
	obs := cli.Observe(fs, cli.Role{
		Proc: "actor", SampleUnit: "engine steps", SampleDefault: 64,
		RunLogRecord: "record per completed episode",
	})
	if code, done := cli.Parse(fs, args, false); done {
		return code
	}

	newEnv, err := cli.Env(*envName, *agents)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitUsage
	}
	algo, err := cli.Algo(*algoName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitUsage
	}
	if *envs < 1 || *firstEnv < 0 || *syncEvery < 1 {
		fmt.Fprintln(stderr, "-envs and -sync-every must be ≥ 1, -first-env ≥ 0")
		return cli.ExitUsage
	}

	probe := newEnv()
	cfg := core.DefaultConfig(algo)
	cfg.Seed = *seed
	spec := cli.Spec(probe, cfg.BufferCapacity)

	// The tracer's proc name is the actor ID so a merged multi-process
	// trace attributes each span row to the right actor.
	obs.Proc = *actorID
	if code := obs.Start(stdout, stderr); code != cli.ExitOK {
		return code
	}
	defer func() { code = obs.Close(code) }()
	registry, tracer := obs.Registry, obs.Tracer

	onSpool := func(queued int, cause error) {
		fmt.Fprintf(stderr, "spool: diverted batch to disk (%d queued): %v\n", queued, cause)
	}
	onDrain := func(batches int) {
		fmt.Fprintf(stderr, "spool: drained %d batch(es) to the service\n", batches)
	}
	// Replicated appends fan out across shard groups, routed by each row's
	// global stream index.
	groups, err := expshard.ParseSpec(*replayAddr)
	if err != nil {
		fmt.Fprintln(stderr, "-replay-addr:", err)
		return cli.ExitUsage
	}
	fabric, err := expserve.NewFabric(groups, expserve.FabricOptions{
		Client: netretry.Options{
			Registry: registry,
			Tracer:   tracer,
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitError
	}
	sink, err := expserve.NewShardedSink(fabric, *actorID, spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitError
	}
	sink.SetMaxBatchRows(*batchRows)
	sink.OnSpool, sink.OnDrain = onSpool, onDrain
	// Validate the shape against the first reachable member and fast-
	// forward each member's append cursor, so a restart under the same
	// -actor-id does not replay sequence numbers the servers will silently
	// dedup. With a spool armed an unreachable fabric is survivable; one
	// replayd named twice is not.
	if sp, err := fabric.FetchSpec(); err != nil {
		if errors.Is(err, expserve.ErrSameReplayd) {
			fmt.Fprintln(stderr, err)
			return cli.ExitUsage
		}
		if *spoolDir == "" {
			fmt.Fprintln(stderr, "experience fabric unreachable:", err)
			return cli.ExitError
		}
		fmt.Fprintln(stderr, "experience fabric unreachable; spooling until it recovers:", err)
	} else {
		if sp.NumAgents != spec.NumAgents || sp.ActDim != spec.ActDim {
			fmt.Fprintf(stderr, "fabric shape mismatch: it stores %d agents × %d actions, this env has %d × %d\n",
				sp.NumAgents, sp.ActDim, spec.NumAgents, spec.ActDim)
			return cli.ExitUsage
		}
		sink.ResumeCursors()
	}
	fmt.Fprintf(stdout, "experience fabric: %s\n", expshard.FormatTopology(fabric.Snapshot()))
	if *spoolDir != "" {
		if err := sink.EnableSpool(expserve.SpoolOptions{
			Dir:      *spoolDir,
			MaxBytes: int64(*spoolMaxMB) << 20,
			Registry: registry,
		}); err != nil {
			fmt.Fprintln(stderr, "enabling spool:", err)
			return cli.ExitError
		}
		if n := sink.SpoolLen(); n > 0 {
			fmt.Fprintf(stdout, "spool: %d batch(es) left over in %s; draining with new traffic\n", n, *spoolDir)
		}
	}

	eng, err := rollout.NewEngine(rollout.Config{
		NewEnv:        newEnv,
		Envs:          *envs,
		FirstEnvIndex: *firstEnv,
		Seed:          *seed,
		GumbelTau:     cfg.GumbelTau,
		MaxEpisodeLen: cfg.MaxEpisodeLen,
		Sink:          sink,
		Registry:      registry,
		Tracer:        tracer,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitError
	}

	// Policy syncer: long-poll marl-policyd in the background, swap newest
	// snapshots in between engine steps.
	var syncer *policysync.Syncer
	if *policyAddr != "" {
		pc := policysync.NewClient(*policyAddr, netretry.Options{
			Registry: registry,
			Tracer:   tracer,
		})
		syncer = policysync.NewSyncer(pc, 10*time.Second)
		syncer.OnError = func(err error) { fmt.Fprintln(stderr, "policy fetch:", err) }
		syncer.Start()
		defer syncer.Close()
	}

	// Initial policy: the service's newest snapshot if one arrives within
	// -policy-wait, else the -load checkpoint, else fresh seeded networks.
	if err := installInitialPolicy(ctx, eng, syncer, *policyWait, cfg, newEnv(), *loadPath, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitError
	}

	fmt.Fprintf(stdout, "collecting on %s with %d agents × %d envs (global %d..%d) as %q -> %s\n",
		probe.Name(), *agents, *envs, *firstEnv, *firstEnv+*envs-1, *actorID, *replayAddr)
	start := time.Now()
	completed := 0
	interrupted := false
	nextLog := *logEvery
	stalePaused := false
	for engineSteps := 0; (*episodes == 0 || completed < *episodes) && !interrupted; engineSteps++ {
		// Bounded-staleness guard: acting on an old snapshot is fine for a
		// while (the syncer keeps whatever landed last), but past the hard
		// cap the experience would drift too far off-policy — pause
		// collection until the policy service answers again.
		if syncer != nil && *maxStale > 0 {
			for {
				gap := time.Since(syncer.LastContact())
				if gap <= *maxStale {
					break
				}
				if !stalePaused {
					stalePaused = true
					fmt.Fprintf(stderr, "policy staleness %v exceeds cap %v; pausing collection\n",
						gap.Round(time.Second), *maxStale)
				}
				select {
				case <-ctx.Done():
					fmt.Fprintln(stderr, "\nsignal: flushing and stopping")
					interrupted = true
				case <-time.After(200 * time.Millisecond):
				}
				if interrupted {
					break
				}
			}
			if stalePaused && !interrupted {
				stalePaused = false
				fmt.Fprintln(stderr, "policy service back in contact; resuming collection")
			}
			if interrupted {
				break
			}
		}
		if syncer != nil && engineSteps%*syncEvery == 0 {
			if snap := syncer.Latest(); snap != nil {
				eng.NoteKnownVersion(snap.Version)
				if snap.Version > eng.PolicyVersion() {
					if err := eng.InstallCtx(snap.Version, snap.Agents, snap.TraceCtx); err != nil {
						fmt.Fprintln(stderr, "installing policy:", err)
						return cli.ExitError
					}
					fmt.Fprintf(stdout, "policy: installed v%d (learner updates %d)\n", snap.Version, snap.Updates)
				}
			}
		}
		n, err := eng.Step()
		if err != nil {
			fmt.Fprintln(stderr, "publishing experience:", err)
			return cli.ExitError
		}
		completed += n
		if n > 0 {
			obs.Log(actorEpisodeRecord{
				Event: "episode", Episodes: completed, Completed: n,
				Steps: eng.TotalSteps(), Reward: eng.LastEpisodeReward(),
				PolicyVersion: eng.PolicyVersion(),
				ElapsedSec:    time.Since(start).Seconds(),
			})
		}
		if n > 0 && *logEvery > 0 && completed >= nextLog {
			nextLog += *logEvery
			fmt.Fprintf(stdout, "episode %6d  reward %10.2f  steps %d  policy v%d  elapsed %v\n",
				completed, eng.LastEpisodeReward(), eng.TotalSteps(), eng.PolicyVersion(),
				time.Since(start).Round(time.Millisecond))
			obs.FlushLog()
		}
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "\nsignal: flushing and stopping")
			interrupted = true
		}
	}
	if err := sink.Flush(); err != nil {
		fmt.Fprintln(stderr, "final flush:", err)
		return cli.ExitError
	}
	// With a spool armed, the final flush may have diverted to disk (or a
	// backlog may remain); give draining one last try so a clean shutdown
	// leaves nothing behind when the service is up.
	if *spoolDir != "" && sink.SpoolLen() > 0 {
		if err := sink.DrainSpool(); err != nil {
			fmt.Fprintf(stderr, "spool: %d batch(es) remain in %s (service still unreachable: %v); they drain on the next run\n",
				sink.SpoolLen(), *spoolDir, err)
		}
	}
	fmt.Fprintf(stdout, "done: %d episodes, %d transitions published, final policy v%d in %v;%s\n",
		completed, eng.TotalSteps(), eng.PolicyVersion(), time.Since(start).Round(time.Millisecond),
		phaseTotals(eng.Profile()))
	if interrupted {
		return cli.ExitInterrupted
	}
	return cli.ExitOK
}

// phaseTotals renders the engine profile's three phases for the exit line:
// what each cost in all, and its share of the three together.
func phaseTotals(p *profiler.Profile) string {
	phases := []profiler.Phase{profiler.PhaseActionSelection, profiler.PhaseEnvStep, profiler.PhaseReplayAdd}
	var total time.Duration
	for _, ph := range phases {
		total += p.Duration(ph)
	}
	var b strings.Builder
	for _, ph := range phases {
		share := 0.0
		if total > 0 {
			share = 100 * float64(p.Duration(ph)) / float64(total)
		}
		fmt.Fprintf(&b, " %v %.1fms %.0f%%", ph, float64(p.Duration(ph))/float64(time.Millisecond), share)
	}
	return b.String()
}

// actorEpisodeRecord is one -runlog line: emitted whenever an engine step
// completes at least one episode.
type actorEpisodeRecord struct {
	Event         string  `json:"event"` // always "episode"
	Episodes      int     `json:"episodes"`
	Completed     int     `json:"completed"` // episodes finished on this step
	Steps         uint64  `json:"steps"`
	Reward        float64 `json:"reward"` // most recently completed episode
	PolicyVersion uint64  `json:"policy_version"`
	ElapsedSec    float64 `json:"elapsed_sec"`
}

// installInitialPolicy gives the engine something to act with: the policy
// service's first snapshot when one shows up in time, otherwise local
// networks — the -load checkpoint's actors, or fresh seeded ones (matching
// what a learner with the same seed starts from). The syncer keeps running
// either way, so a late-starting policyd still takes over at the next sync.
func installInitialPolicy(ctx context.Context, eng *rollout.Engine, syncer *policysync.Syncer, wait time.Duration, cfg core.Config, env mpe.Env, loadPath string, stdout, stderr io.Writer) error {
	if syncer != nil {
		// In slices, so a signal during the wait is not held for all of it.
		var snap *policysync.Snapshot
		for deadline := time.Now().Add(wait); snap == nil && ctx.Err() == nil && time.Now().Before(deadline); {
			snap = syncer.WaitFirst(200 * time.Millisecond)
		}
		if snap != nil {
			if err := eng.InstallCtx(snap.Version, snap.Agents, snap.TraceCtx); err != nil {
				return fmt.Errorf("installing served policy: %w", err)
			}
			fmt.Fprintf(stdout, "policy: installed v%d (learner updates %d)\n", snap.Version, snap.Updates)
			return nil
		}
		fmt.Fprintf(stderr, "no policy published within %v; starting from the local one\n", wait)
	}
	nets, err := localActorNetworks(cfg, env, loadPath)
	if err != nil {
		return err
	}
	if err := eng.Install(0, nets); err != nil {
		return fmt.Errorf("installing local policy: %w", err)
	}
	if loadPath != "" {
		fmt.Fprintf(stdout, "acting with policy from %s\n", loadPath)
	}
	return nil
}

// localActorNetworks builds the acting networks without a policy service: a
// throwaway trainer (tiny replay allocation) constructs the full agent
// stack, optionally restores loadPath, and hands over its actors.
func localActorNetworks(cfg core.Config, env mpe.Env, loadPath string) ([]*nn.Network, error) {
	cfg.BufferCapacity = cfg.BatchSize // never filled; keep the allocation small
	tr, err := core.NewTrainer(cfg, env)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	if loadPath != "" {
		f, err := os.Open(loadPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := tr.LoadCheckpoint(f); err != nil {
			return nil, fmt.Errorf("loading checkpoint: %w", err)
		}
	}
	return tr.ActorNetworks(), nil
}
