// Command marl-replayd runs the experience service: a segment-packed
// persistent replay store behind the append/sample/stats HTTP API that
// marl-actor publishes into and marl-train -replay-addr samples from.
//
// Usage:
//
//	marl-replayd -addr 127.0.0.1:9300 -dir /var/lib/marl/replay -env cn -agents 3
//
// The transition shape is fixed by the environment (-env, -agents) so
// every connecting actor and learner is validated against it. With -dir
// the store is durable: rows are packed into CRC-framed segment files,
// a restart recovers every acknowledged row (a torn tail from a crash
// mid-write is truncated away), and -capacity bounds the retained window
// like a ring buffer, retiring whole dead segments. Without -dir the
// store is a volatile in-memory ring with identical semantics.
//
// The same address also serves /metrics (Prometheus text exposition of
// the marl_exp_* ingest/sample/occupancy series) and /healthz.
//
// Sizing: the retained window lives outside the Go heap, on transparent
// huge pages where the host grants them, so resident memory is about
// -capacity × row bytes (stride × 8) plus a few MB of heap; /metrics says
// how much is mapped (marl_exp_store_arena_bytes) and how much of the
// process is on huge pages (marl_exp_store_hugepage_bytes).
package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"marlperf/internal/cli"
	"marlperf/internal/expserve"
	"marlperf/internal/expshard"
	"marlperf/internal/expstore"
	"marlperf/internal/replay"
)

const usage = `Usage: marl-replayd [flags]

Serves the experience service for a networked actor/learner split:
POST /v1/append ingests CRC-framed transition batches (idempotent per
actor sequence number, bounded queue, 429 backpressure), POST
/v1/shard-sample gathers this store's share of a learner's uniform or
locality draw — the request names the rows the learner selected here, the
reply is gathered zero-copy from the row store — with response volume on
marl_exp_sample_bytes_total. GET
/v1/stats reports the spec and occupancy. /metrics exposes the
marl_exp_* series; /healthz reports liveness.

Every acknowledged append is flushed to the store first, so with -dir a
kill -9 loses nothing an actor saw acknowledged.
`

func main() { cli.Main(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := cli.NewFlagSet("marl-replayd", usage, stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:9300", "address to serve the experience API, /metrics, /tracez and /healthz on")
		dir         = fs.String("dir", "", "segment directory for the persistent store (empty: volatile in-memory ring)")
		envName     = fs.String("env", "cn", "environment fixing the transition shape: pp, cn or pd")
		agents      = fs.Int("agents", 3, "number of trainable agents")
		capacity    = fs.Int("capacity", 100_000, "retained transition window (ring semantics; dead segments are retired)")
		segRows     = fs.Int("segment-rows", expstore.DefaultSegmentRows, "rows per segment file before rotation")
		queue       = fs.Int("queue-depth", 64, "ingest queue depth in batches; a full queue answers 429")
		maxRows     = fs.Int("max-sample-rows", 4096, "largest mini-batch one sample request may ask for")
		shardID     = fs.String("shard-id", "", "serve as this shard group of a sharded fabric; shard-sample requests addressed to another group are rejected (empty: accept any)")
		ringSpec    = fs.String("ring", "", "fabric topology spec (same syntax as marl-train -replay-addr) to validate -shard-id against and print the ring placement at startup")
		drain       = fs.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests and the ingest queue on SIGINT/SIGTERM")
		runlogEvery = fs.Duration("runlog-every", 10*time.Second, "period between -runlog stats records")
	)
	obs := cli.Observe(fs, cli.Role{Proc: "replayd", RunLogRecord: "service-stats record per -runlog-every period"})
	if code, done := cli.Parse(fs, args, false); done {
		return code
	}

	newEnv, err := cli.Env(*envName, *agents)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitUsage
	}
	env := newEnv()
	spec := cli.Spec(env, *capacity)
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitUsage
	}

	// A shard of a fabric knows its own group ID so misaddressed
	// shard-sample requests bounce instead of silently answering with the
	// wrong sub-stream. -ring is optional cross-checking: the spec must
	// mention this shard, and the placement is printed for the operator.
	if *ringSpec != "" {
		groups, err := expshard.ParseSpec(*ringSpec)
		if err != nil {
			fmt.Fprintln(stderr, "-ring:", err)
			return cli.ExitUsage
		}
		snap, err := expshard.BuildSnapshot(groups, 0)
		if err != nil {
			fmt.Fprintln(stderr, "-ring:", err)
			return cli.ExitUsage
		}
		if *shardID != "" {
			found := false
			for _, g := range groups {
				found = found || g.ID == *shardID
			}
			if !found {
				fmt.Fprintf(stderr, "-shard-id %q does not appear in -ring %q\n", *shardID, *ringSpec)
				return cli.ExitUsage
			}
		}
		fmt.Fprintln(stdout, expshard.FormatTopology(snap))
	}

	// Shard members stamp their group ID into the process name so a merged
	// trace counts each shard as a distinct process.
	if *shardID != "" {
		obs.Proc = "replayd/" + *shardID
	}
	if code := obs.Start(stdout, stderr); code != cli.ExitOK {
		return code
	}
	defer func() { code = obs.Close(code) }()

	// forced is set when the drain gives up on in-flight requests. Their
	// handlers may still be gathering from a bare ring, which has no lock
	// to make a late reader panic instead of fault, so its rows then stay
	// mapped until the process exits.
	forced := false
	var provider expstore.Provider
	if *dir != "" {
		store, err := expstore.Open(*dir, spec, expstore.Options{SegmentRows: *segRows})
		if err != nil {
			fmt.Fprintln(stderr, "opening store:", err)
			return cli.ExitError
		}
		defer store.Close()
		provider = store
		fmt.Fprintf(stdout, "store: %s (recovered %d rows, %d total ever appended)\n",
			*dir, store.RowCount(), store.Total())
	} else {
		ring := expstore.NewRing(spec)
		defer func() {
			if !forced {
				ring.Close()
			}
		}()
		provider = ring
		fmt.Fprintln(stdout, "store: volatile in-memory ring (no -dir)")
	}

	srv, err := expserve.NewServer(expserve.ServerConfig{
		Provider:      provider,
		Spec:          spec,
		QueueDepth:    *queue,
		MaxSampleRows: *maxRows,
		Registry:      obs.Registry,
		Tracer:        obs.Tracer,
		ShardID:       *shardID,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitError
	}
	defer srv.Close()

	mux := http.NewServeMux()
	mux.Handle("/v1/", srv.Handler())
	obs.Mount(mux)

	if obs.Logging() {
		defer logStats(obs, *runlogEvery)()
	}

	return cli.Daemon{
		Addr:    *addr,
		Handler: mux,
		Started: func(bound string) {
			shardNote := ""
			if *shardID != "" {
				shardNote = fmt.Sprintf(" shard=%s", *shardID)
			}
			fmt.Fprintf(stdout, "experience service: %s agents=%d stride=%d capacity=%d%s\n",
				env.Name(), spec.NumAgents, replay.NewRowLayout(spec).Stride(), spec.Capacity, shardNote)
			fmt.Fprintf(stdout, "serving /v1/append /v1/shard-sample /v1/stats /metrics on http://%s\n", bound)
		},
		DrainTimeout: *drain,
		// Stop accepting connections and let in-flight requests finish,
		// then drain the ingest queue so every acknowledged batch is
		// flushed to the store before exit.
		Drain: func(_ context.Context, shutdown func() error) {
			forced = shutdown() != nil
			srv.Close() // blocks until the ingest queue is applied and flushed
			fmt.Fprintf(stderr, "drained; arena_bytes=%.0f hugepage_bytes=%.0f; exiting\n",
				obs.Registry.Gauge("marl_exp_store_arena_bytes").Value(), obs.Registry.Gauge("marl_exp_store_hugepage_bytes").Value())
		},
	}.Run(ctx, stderr)
}

// statsRecord is one -runlog line: a periodic occupancy/throughput snapshot
// of the service, readable next to a learner's or actor's run log.
type statsRecord struct {
	Event         string    `json:"event"` // always "stats"
	Time          time.Time `json:"time"`
	Rows          int       `json:"rows"` // retained window occupancy
	IngestBatches uint64    `json:"ingest_batches"`
	IngestRows    uint64    `json:"ingest_rows"`
	SampleReqs    uint64    `json:"sample_requests"`
	SampleRows    uint64    `json:"sample_rows"`
}

// logStats appends one statsRecord per period until the returned stop
// function runs, which writes a final record so the log always ends with
// the service's exit state. Rows is the marl_exp_store_rows gauge, which
// the server sets under its store lock: a volatile ring has no lock of
// its own, so reading the provider here would race with appends.
func logStats(obs *cli.Obs, every time.Duration) (stop func()) {
	if every <= 0 {
		every = 10 * time.Second
	}
	reg := obs.Registry
	record := func() statsRecord {
		return statsRecord{
			Event:         "stats",
			Time:          time.Now(),
			Rows:          int(reg.Gauge("marl_exp_store_rows").Value()),
			IngestBatches: reg.Counter("marl_exp_ingest_batches_total").Value(),
			IngestRows:    reg.Counter("marl_exp_ingest_rows_total").Value(),
			SampleReqs:    reg.Counter("marl_exp_sample_requests_total").Value(),
			SampleRows:    reg.Counter("marl_exp_sample_rows_total").Value(),
		}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				obs.Log(record())
				obs.FlushLog()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		obs.Log(record())
	}
}
