// Command marl-serve is the inference daemon: it subscribes to a policy
// service (marl-policyd), hot-swaps each published snapshot into a
// micro-batching gateway, and serves actions over HTTP — observations in,
// greedy per-agent actions out.
//
// Usage:
//
//	marl-serve -addr 127.0.0.1:9500 -policy-addr 127.0.0.1:9400 \
//	  -batch-window 2ms -max-batch 64 -canary-percent 10
//
// Concurrent POST /act requests are coalesced into one batched forward per
// agent network (the rollout engine's own forward core, so batched answers
// are bit-identical to per-request ones). /healthz answers 503 until the
// first snapshot installs — a load balancer fronts this process only once
// it can actually act. With -canary-percent P and two retained snapshots,
// P% of unpinned traffic serves the newest version and the rest the
// previous one; `?version=N` pins either retained version exactly.
// SIGINT/SIGTERM drains: new requests get 503, accepted ones finish.
package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"marlperf/internal/cli"
	"marlperf/internal/policysync"
	"marlperf/internal/serve"
)

const usage = `Usage: marl-serve [flags]

Serves actions from the newest published policy. POST /act takes one
observation set — {"obs": [[...], ...]} as JSON, or raw f64le values as
application/octet-stream — and answers the greedy action per agent.
Concurrent requests are coalesced into batched forwards; answers are
bit-identical to per-request forwards, so batching is invisible to
clients. /healthz flips 503→200 at the first snapshot install.

Exit codes:
  0  drained and stopped cleanly after SIGINT/SIGTERM
  1  runtime failure
  2  bad command line
`

func main() { cli.Main(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := cli.NewFlagSet("marl-serve", usage, stderr)
	var (
		addr          = fs.String("addr", "127.0.0.1:9500", "serve /act, /healthz and /statz here")
		policyAddr    = fs.String("policy-addr", "127.0.0.1:9400", "policy service address (marl-policyd) to subscribe to")
		policyWait    = fs.Duration("policy-wait", 0, "wait this long for the first snapshot before serving (0: start unready and let /healthz gate)")
		batchWindow   = fs.Duration("batch-window", 2*time.Millisecond, "how long the batcher holds an incomplete batch open for more requests (0: batch only what is already queued)")
		maxBatch      = fs.Int("max-batch", 64, "most requests coalesced into one forward")
		queueDepth    = fs.Int("queue-depth", 0, "request queue bound; beyond it /act answers 429 (0: 4×max-batch)")
		canaryPercent = fs.Int("canary-percent", 0, "route this % of unpinned requests to the newest snapshot, the rest to the previous one (0: all traffic serves the newest)")
		canarySeed    = fs.Int64("canary-seed", 1, "seed for the deterministic canary split")
		direct        = fs.Bool("direct", false, "disable micro-batching: one forward per request under a mutex (benchmark baseline)")
		drainTimeout  = fs.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests")
	)
	obs := cli.Observe(fs, cli.Role{Proc: "marl-serve", SampleUnit: "requests", SampleDefault: 64})
	if code, done := cli.Parse(fs, args, false); done {
		return code
	}
	if *maxBatch < 1 || *canaryPercent < 0 || *canaryPercent > 100 {
		fmt.Fprintln(stderr, "-max-batch must be ≥1 and -canary-percent in [0,100]")
		return cli.ExitUsage
	}
	if code := obs.Start(stdout, stderr); code != cli.ExitOK {
		return code
	}
	defer func() { code = obs.Close(code) }()

	gw := serve.NewGateway(serve.Config{
		Window:        *batchWindow,
		MaxBatch:      *maxBatch,
		QueueDepth:    *queueDepth,
		CanaryPercent: *canaryPercent,
		Seed:          *canarySeed,
		Direct:        *direct,
		Registry:      obs.Registry,
		Tracer:        obs.Tracer,
	})
	srv, err := serve.NewServer(gw)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitError
	}

	// Policy subscription: every snapshot the syncer lands is hot-swapped
	// in; the first one also backfills the stable canary arm from the
	// service's previous retained version, so the split works immediately
	// for a gateway that started late.
	pc := policysync.NewClient(*policyAddr, policysync.ClientOptions{Registry: obs.Registry, Tracer: obs.Tracer})
	syncer := policysync.NewSyncer(pc, 10*time.Second)
	syncer.OnError = func(err error) { fmt.Fprintln(stderr, "policy fetch:", err) }
	syncer.OnInstall = func(snap *policysync.Snapshot) {
		backfill := !gw.Ready() && snap.Version >= 2
		if err := gw.Install(snap.Version, snap.Updates, snap.Agents, snap.TraceCtx); err != nil {
			fmt.Fprintln(stderr, "installing snapshot:", err)
			return
		}
		fmt.Fprintf(stdout, "policy: serving v%d (learner updates %d)\n", snap.Version, snap.Updates)
		if backfill {
			prev, err := pc.FetchVersion(ctx, snap.Version-1)
			if err != nil {
				fmt.Fprintln(stderr, "backfilling previous version:", err)
				return
			}
			if prev != nil {
				if err := gw.InstallPrevious(prev.Version, prev.Updates, prev.Agents, prev.TraceCtx); err != nil {
					fmt.Fprintln(stderr, "installing previous version:", err)
					return
				}
				fmt.Fprintf(stdout, "policy: stable arm backfilled with v%d\n", prev.Version)
			}
		}
	}
	syncer.Start()
	defer syncer.Close()

	// In slices, so a signal during the wait is not held for all of it.
	for deadline := time.Now().Add(*policyWait); ctx.Err() == nil && time.Now().Before(deadline); {
		if syncer.WaitFirst(200*time.Millisecond) != nil {
			break
		}
	}
	if *policyWait > 0 && !gw.Ready() {
		fmt.Fprintf(stderr, "no policy published within %v; serving unready\n", *policyWait)
	}

	return cli.Daemon{
		Addr:    *addr,
		Handler: srv.Handler(),
		Started: func(bound string) {
			mode := "micro-batching"
			if *direct {
				mode = "direct (per-request)"
			}
			fmt.Fprintf(stdout, "serving actions on http://%s%s (%s, window %v, max batch %d, canary %d%%) from policy service %s\n",
				bound, serve.PathAct, mode, *batchWindow, *maxBatch, *canaryPercent, *policyAddr)
		},
		DrainTimeout: *drainTimeout,
		// Drain before closing the listener: new /act requests answer 503
		// while accepted ones finish. BeginDrain takes the timeout, not the
		// context, so a second signal does not shorten it.
		Drain: func(_ context.Context, shutdown func() error) {
			if err := srv.BeginDrain(*drainTimeout); err != nil {
				fmt.Fprintln(stderr, "drain:", err)
			}
			_ = shutdown() // every accepted request has been answered
			head, prev := gw.Versions()
			fmt.Fprintf(stdout, "stopped: head v%d, stable v%d\n", head, prev)
		},
	}.Run(ctx, stderr)
}
