// Command marl-policyd runs the policy distribution service: a versioned
// store of per-agent actor-network snapshots behind the publish/fetch HTTP
// API that marl-train -policy-publish-addr pushes into and marl-actor
// -policy-addr long-polls. It is the learner→actor half of the closed
// distributed loop (marl-replayd is the actor→learner half).
//
// Usage:
//
//	marl-policyd -addr 127.0.0.1:9400
//
// Every published frame is validated end to end (CRC trailer, per-network
// decode) before it becomes visible, and the serving version is assigned
// here — monotonic from 1 — so a restarted learner republishing identical
// weights still advances every subscriber. The same address also serves
// /metrics (Prometheus text exposition of the marl_policy_* series) and
// /healthz.
package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"marlperf/internal/cli"
	"marlperf/internal/policysync"
)

const usage = `Usage: marl-policyd [flags]

Serves versioned policy snapshots for a networked actor/learner split:
POST /v1/policy publishes one CRC-framed per-agent weight snapshot (the
learner's cadence push), GET /v1/policy?after=N&wait=5s long-polls for a
newer version (ETag/If-None-Match "vN" works too), GET /v1/policy/stats
reports version/updates/bytes. /metrics exposes the marl_policy_* series;
/healthz reports liveness.

Corrupt publishes are rejected before they can reach any actor, and
serving versions are assigned server-side, so learner restarts never
stall subscribers.
`

func main() { cli.Main(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := cli.NewFlagSet("marl-policyd", usage, stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:9400", "address to serve the policy API, /metrics, /tracez and /healthz on")
		maxWait  = fs.Duration("max-wait", 30*time.Second, "cap on one long-poll hold")
		maxFrame = fs.Int64("max-frame-bytes", 256<<20, "largest accepted policy snapshot")
		quiet    = fs.Bool("quiet", false, "suppress the per-publish log line")
		drain    = fs.Duration("drain-timeout", 5*time.Second, "grace period for in-flight responses on SIGINT/SIGTERM")
	)
	obs := cli.Observe(fs, cli.Role{Proc: "policyd", RunLogRecord: "record per accepted publish"})
	if code, done := cli.Parse(fs, args, false); done {
		return code
	}
	if code := obs.Start(stdout, stderr); code != cli.ExitOK {
		return code
	}
	defer func() { code = obs.Close(code) }()

	store := policysync.NewStore(obs.Registry)
	// OnPublish runs outside the store lock on the publishing request's
	// goroutine; concurrent publishes are possible, if unusual.
	store.OnPublish = func(version, updates uint64, bytes int) {
		if !*quiet {
			fmt.Fprintf(stdout, "published v%d (learner updates %d, %d bytes)\n", version, updates, bytes)
		}
		obs.Log(publishRecord{
			Event: "publish", Time: time.Now(),
			Version: version, Updates: updates, Bytes: bytes,
		})
		obs.FlushLog()
	}

	srv, err := policysync.NewServer(policysync.ServerConfig{
		Store:         store,
		MaxWait:       *maxWait,
		MaxFrameBytes: *maxFrame,
		Registry:      obs.Registry,
		Tracer:        obs.Tracer,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitError
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", srv.Handler())
	obs.Mount(mux)

	return cli.Daemon{
		Addr:    *addr,
		Handler: mux,
		Started: func(bound string) {
			fmt.Fprintf(stdout, "policy service: serving %s %s /metrics on http://%s (max-wait %v)\n",
				policysync.PathPolicy, policysync.PathStats, bound, *maxWait)
		},
		DrainTimeout: *drain,
		// Release every parked long-poll first (each fetcher gets the
		// current version and retries elsewhere), then let in-flight
		// responses finish writing.
		Drain: func(_ context.Context, shutdown func() error) {
			store.Close()
			_ = shutdown() // connections it had to close were given the timeout
			fmt.Fprintln(stderr, "drained; exiting")
		},
	}.Run(ctx, stderr)
}

// publishRecord is one -runlog line, emitted per accepted publish.
type publishRecord struct {
	Event   string    `json:"event"` // always "publish"
	Time    time.Time `json:"time"`
	Version uint64    `json:"version"`
	Updates uint64    `json:"updates"`
	Bytes   int       `json:"bytes"`
}
