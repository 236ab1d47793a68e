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
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"marlperf"
	"marlperf/internal/expserve"
	"marlperf/internal/expshard"
	"marlperf/internal/expstore"
	"marlperf/internal/replay"
	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:9300", "address to serve the experience API, /metrics and /healthz on")
		dir      = flag.String("dir", "", "segment directory for the persistent store (empty: volatile in-memory ring)")
		envName  = flag.String("env", "cn", "environment fixing the transition shape: pp, cn or pd")
		agents   = flag.Int("agents", 3, "number of trainable agents")
		capacity = flag.Int("capacity", 100_000, "retained transition window (ring semantics; dead segments are retired)")
		segRows  = flag.Int("segment-rows", expstore.DefaultSegmentRows, "rows per segment file before rotation")
		queue    = flag.Int("queue-depth", 64, "ingest queue depth in batches; a full queue answers 429")
		maxRows  = flag.Int("max-sample-rows", 4096, "largest mini-batch one sample request may ask for")
		shardID  = flag.String("shard-id", "", "serve as this shard group of a sharded fabric; shard-sample requests addressed to another group are rejected (empty: accept any)")
		ringSpec = flag.String("ring", "", "fabric topology spec (same syntax as marl-train -replay-addr) to validate -shard-id against and print the ring placement at startup")
		drain    = flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests and the ingest queue on SIGINT/SIGTERM")

		metricsAddr = flag.String("metrics-addr", "", "additionally serve /metrics, /tracez, /healthz and /debug/pprof on this separate address (the main -addr always serves /metrics)")
		runlogPath  = flag.String("runlog", "", "append one JSONL service-stats record per -runlog-every period to this file")
		runlogEvery = flag.Duration("runlog-every", 10*time.Second, "period between -runlog stats records")
		traceOn     = flag.Bool("trace", false, "record server spans for traced append/sample requests (X-Marl-Trace header); costs nothing when off")
		traceBuf    = flag.Int("trace-buf", trace.DefaultCapacity, "with -trace: span ring-buffer capacity in records")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `Usage: marl-replayd [flags]

Serves the experience service for a networked actor/learner split:
POST /v1/append ingests CRC-framed transition batches (idempotent per
actor sequence number, bounded queue, 429 backpressure), POST
/v1/shard-sample executes this store's slice of a seeded uniform or
locality draw server-side over the packed rows — the request carries the
client's frozen fabric view, the reply is gathered zero-copy from the
row store — with response volume on marl_exp_sample_bytes_total. GET
/v1/stats reports the spec and occupancy. /metrics exposes the
marl_exp_* series; /healthz reports liveness.

Every acknowledged append is flushed to the store first, so with -dir a
kill -9 loses nothing an actor saw acknowledged.

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
	spec := replay.Spec{
		NumAgents: env.NumAgents(),
		ObsDims:   env.ObsDims(),
		ActDim:    env.NumActions(),
		Capacity:  *capacity,
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}

	// forced is set when the drain gives up on in-flight requests. Their
	// handlers may still be gathering from a bare ring, which has no lock
	// to make a late reader panic instead of fault, so its rows then stay
	// mapped until the process exits.
	forced := false
	var provider expstore.Provider
	if *dir != "" {
		store, err := expstore.Open(*dir, spec, expstore.Options{SegmentRows: *segRows})
		if err != nil {
			fmt.Fprintln(os.Stderr, "opening store:", err)
			return exitError
		}
		defer store.Close()
		provider = store
		fmt.Printf("store: %s (recovered %d rows, %d total ever appended)\n",
			*dir, store.RowCount(), store.Total())
	} else {
		ring := expstore.NewRing(spec)
		defer func() {
			if !forced {
				ring.Close()
			}
		}()
		provider = ring
		fmt.Println("store: volatile in-memory ring (no -dir)")
	}

	// With a durable store the dedup sidecar lives beside the segments, so
	// the exactly-once cursor survives the same crashes the rows do.
	dedupPath := ""
	if *dir != "" {
		dedupPath = filepath.Join(*dir, "dedup.log")
	}

	registry := telemetry.NewRegistry()

	// Server spans are born from incoming X-Marl-Trace headers, so replayd
	// needs no sampling cadence of its own — the callers decide what is
	// traced; this process just records its side of those requests. Shard
	// members stamp their group ID into the process role so a merged trace
	// counts each shard as a distinct process.
	var tracer *trace.Tracer
	if *traceOn {
		procName := "replayd"
		if *shardID != "" {
			procName = "replayd/" + *shardID
		}
		tracer = trace.New(procName, *traceBuf)
		tracer.SetEnabled(true)
		fmt.Printf("tracing: recording spans for traced requests into a %d-record ring\n", *traceBuf)
	}

	// A shard of a fabric knows its own group ID so misaddressed
	// shard-sample requests bounce instead of silently answering with the
	// wrong sub-stream. -ring is optional cross-checking: the spec must
	// mention this shard, and the placement is printed for the operator.
	if *ringSpec != "" {
		groups, err := expshard.ParseSpec(*ringSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "-ring:", err)
			return exitUsage
		}
		snap, err := expshard.BuildSnapshot(groups, expshard.DefaultPartitions)
		if err != nil {
			fmt.Fprintln(os.Stderr, "-ring:", err)
			return exitUsage
		}
		if *shardID != "" {
			found := false
			for _, g := range groups {
				found = found || g.ID == *shardID
			}
			if !found {
				fmt.Fprintf(os.Stderr, "-shard-id %q does not appear in -ring %q\n", *shardID, *ringSpec)
				return exitUsage
			}
		}
		fmt.Println(expshard.FormatTopology(snap))
	}

	srv, err := expserve.NewServer(expserve.ServerConfig{
		Provider:      provider,
		Spec:          spec,
		QueueDepth:    *queue,
		MaxSampleRows: *maxRows,
		Registry:      registry,
		DedupLogPath:  dedupPath,
		Tracer:        tracer,
		ShardID:       *shardID,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	defer srv.Close()

	mux := http.NewServeMux()
	mux.Handle("/v1/", srv.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", telemetry.ExpositionContentType)
		_ = registry.WriteExposition(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		if tracer == nil {
			http.Error(w, "tracing not enabled", http.StatusNotFound)
			return
		}
		tracer.Handler().ServeHTTP(w, r)
	})

	if *metricsAddr != "" {
		srvCfg := telemetry.ServerConfig{Registry: registry}
		if tracer != nil {
			srvCfg.Tracez = tracer.Handler()
		}
		ms, err := telemetry.StartServer(*metricsAddr, srvCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitError
		}
		defer ms.Close()
		fmt.Printf("metrics: http://%s/metrics\n", ms.Addr())
	}

	stopRunLog := func() {}
	if *runlogPath != "" {
		stop, err := startStatsLog(*runlogPath, *runlogEvery, provider, registry)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitError
		}
		stopRunLog = stop
	}
	defer stopRunLog()

	hs := &http.Server{Addr: *addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()

	shardNote := ""
	if *shardID != "" {
		shardNote = fmt.Sprintf(" shard=%s", *shardID)
	}
	fmt.Printf("experience service: %s agents=%d stride=%d capacity=%d%s\n",
		env.Name(), spec.NumAgents, replay.NewRowLayout(spec).Stride(), spec.Capacity, shardNote)
	fmt.Printf("serving /v1/append /v1/shard-sample /v1/stats /metrics on http://%s\n", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	select {
	case sig := <-sigCh:
		// Graceful drain: stop accepting connections and let in-flight
		// requests finish, then drain the ingest queue so every acknowledged
		// batch is flushed to the store before exit. A second signal (or the
		// drain timeout) forces the issue.
		fmt.Fprintf(os.Stderr, "\n%v: draining (timeout %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		go func() {
			select {
			case sig := <-sigCh:
				fmt.Fprintf(os.Stderr, "%v: forcing shutdown\n", sig)
				cancel()
			case <-ctx.Done():
			}
		}()
		if err := hs.Shutdown(ctx); err != nil {
			forced = true
			hs.Close()
		}
		cancel()
		srv.Close() // blocks until the ingest queue is applied and flushed
		fmt.Fprintf(os.Stderr, "drained; arena_bytes=%.0f hugepage_bytes=%.0f; exiting\n",
			registry.Gauge("marl_exp_store_arena_bytes").Value(), registry.Gauge("marl_exp_store_hugepage_bytes").Value())
		return exitOK
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, err)
			return exitError
		}
		return exitOK
	}
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

// startStatsLog appends one statsRecord per period until the returned stop
// function runs (which also writes a final record so the log always ends
// with the service's exit state).
func startStatsLog(path string, every time.Duration, provider expstore.Provider, reg *telemetry.Registry) (func(), error) {
	if every <= 0 {
		every = 10 * time.Second
	}
	l, err := telemetry.CreateRunLog(path)
	if err != nil {
		return nil, err
	}
	record := func() statsRecord {
		return statsRecord{
			Event:         "stats",
			Time:          time.Now(),
			Rows:          provider.RowCount(),
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
				if err := l.Append(record()); err != nil {
					return
				}
				_ = l.Flush()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
			_ = l.Append(record())
			if err := l.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "warning: run log close:", err)
			}
		})
	}, nil
}
