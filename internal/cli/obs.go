package cli

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"

	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

// Role is what a binary is as far as observability goes. It is compile-time
// data, not an option: it decides which of the six flags the binary has and
// what their help says, so every tier is instrumented the same way and a
// binary carries no flag that does nothing.
type Role struct {
	// Proc names the process in trace captures. A binary may refine it
	// between Parse and Start (the actor's ID, a replayd's shard). Empty:
	// the binary records no spans and has none of the four -trace flags.
	Proc string
	// SampleUnit is what -trace-sample counts ("update stages") and
	// SampleDefault its default. Empty: spans are born from the callers'
	// X-Marl-Trace headers, the callers decide what is traced, and there
	// is no -trace-sample.
	SampleUnit    string
	SampleDefault int
	// RunLogRecord is what one -runlog line is ("run-event record per
	// update step"). Empty: nothing writes one and there is no -runlog.
	RunLogRecord string
	// NoMetricsAddr marks a client that has nothing to serve.
	NoMetricsAddr bool
}

// Obs is a binary's observability: the registry every component reports
// into, the tracer, the run log and the -metrics-addr server, built from
// the flags Observe registered.
type Obs struct {
	Role
	// Registry is the one registry of the process.
	Registry *telemetry.Registry
	// Tracer is nil without -trace; a nil tracer's methods no-op without
	// allocating, so untraced runs pay nothing.
	Tracer *trace.Tracer
	// Profilez backs the -metrics-addr server's /profilez; a binary with a
	// phase profile sets it where its producer is quiescent.
	Profilez telemetry.JSONSnapshot

	metricsAddr, runlogPath, traceOut string
	traceOn                           bool
	traceSample, traceBuf             int

	info, stderr io.Writer
	server       *telemetry.Server
	runLog       *telemetry.RunLog
	logWarn      sync.Once
}

// Observe registers the role's observability flags on fs.
func Observe(fs *flag.FlagSet, role Role) *Obs {
	o := &Obs{Role: role, Registry: telemetry.NewRegistry()}
	if !role.NoMetricsAddr {
		fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics (Prometheus), /profilez, /tracez, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:9090; empty: disabled)")
	}
	if role.RunLogRecord != "" {
		fs.StringVar(&o.runlogPath, "runlog", "", "append one JSONL "+role.RunLogRecord+" to this file")
	}
	if role.Proc == "" {
		return o
	}
	what := "server spans for requests that carry an X-Marl-Trace header"
	if role.SampleUnit != "" {
		what = "distributed-trace spans for sampled " + role.SampleUnit
		fs.IntVar(&o.traceSample, "trace-sample", role.SampleDefault, "with -trace: trace one in this many "+role.SampleUnit)
	}
	fs.BoolVar(&o.traceOn, "trace", false, "record "+what+"; costs nothing when off")
	fs.IntVar(&o.traceBuf, "trace-buf", trace.DefaultCapacity, "with -trace: span ring-buffer capacity in records (oldest evicted first)")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace: write the recorded spans as Chrome trace JSON to this file at exit")
	return o
}

// Start validates the flags and builds what they ask for. It returns
// ExitOK, or the code run should return after the message Start printed.
// Progress lines go to info (stderr for a binary whose stdout is data).
// Pair it with a deferred Close.
func (o *Obs) Start(info, stderr io.Writer) int {
	o.info, o.stderr = info, stderr
	if o.traceOut != "" && !o.traceOn {
		fmt.Fprintln(stderr, "-trace-out requires -trace")
		return ExitUsage
	}
	if o.SampleUnit != "" && o.traceSample < 1 {
		fmt.Fprintf(stderr, "-trace-sample %d: want ≥1\n", o.traceSample)
		return ExitUsage
	}
	if o.traceOn {
		o.Tracer = trace.New(o.Proc, o.traceBuf)
		if o.SampleUnit != "" {
			o.Tracer.SetSampleEvery(uint64(o.traceSample))
			fmt.Fprintf(info, "tracing: sampling 1 in %d %s into a %d-record ring\n", o.traceSample, o.SampleUnit, o.traceBuf)
		} else {
			fmt.Fprintf(info, "tracing: recording spans for traced requests into a %d-record ring\n", o.traceBuf)
		}
		o.Tracer.SetEnabled(true)
	}
	if o.runlogPath != "" {
		l, err := telemetry.CreateRunLog(o.runlogPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return ExitError
		}
		o.runLog = l
	}
	if o.metricsAddr != "" {
		cfg := o.serverConfig()
		cfg.Profilez = &o.Profilez
		srv, err := telemetry.StartServer(o.metricsAddr, cfg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			if o.runLog != nil {
				o.runLog.Close() // nothing was appended
			}
			return ExitError
		}
		o.server = srv
		fmt.Fprintf(info, "metrics: http://%s/metrics\n", srv.Addr())
	}
	return ExitOK
}

func (o *Obs) serverConfig() telemetry.ServerConfig {
	cfg := telemetry.ServerConfig{Registry: o.Registry}
	if o.Tracer != nil {
		cfg.Tracez = o.Tracer.Handler()
	}
	return cfg
}

// Mount puts /metrics, /healthz and /tracez on a daemon's own listener,
// from the handlers the -metrics-addr server uses. Call after Start.
func (o *Obs) Mount(mux *http.ServeMux) { o.serverConfig().Mount(mux) }

// Logging reports whether -runlog was given.
func (o *Obs) Logging() bool { return o.runLog != nil }

// Serving reports whether -metrics-addr started a server.
func (o *Obs) Serving() bool { return o.server != nil }

// Log appends one record to the run log; without -runlog it does nothing.
// Safe for concurrent use. The first failure warns, later ones are silent:
// a full disk must not bury the run's own output.
func (o *Obs) Log(rec any) {
	if o.runLog != nil {
		o.warnLog(o.runLog.Append(rec))
	}
}

// FlushLog pushes buffered records to the file.
func (o *Obs) FlushLog() {
	if o.runLog != nil {
		o.warnLog(o.runLog.Flush())
	}
}

func (o *Obs) warnLog(err error) {
	if err != nil {
		o.logWarn.Do(func() { fmt.Fprintln(o.stderr, "warning: run log write failed:", err) })
	}
}

// Close writes -trace-out, closes the run log and stops the server. Defer
// it as `defer func() { code = obs.Close(code) }()` so it runs on every
// exit path: a trace that cannot be written turns ExitOK into ExitError.
func (o *Obs) Close(code int) int {
	if o.Tracer != nil && o.traceOut != "" {
		if err := o.writeTrace(); err != nil {
			fmt.Fprintln(o.stderr, "writing trace:", err)
			if code == ExitOK {
				code = ExitError
			}
		} else {
			fmt.Fprintf(o.info, "trace written to %s (%d spans, %d dropped)\n", o.traceOut, o.Tracer.Len(), o.Tracer.Dropped())
		}
	}
	if o.runLog != nil {
		if err := o.runLog.Close(); err != nil {
			fmt.Fprintln(o.stderr, "warning: run log close:", err)
		}
	}
	if o.server != nil {
		o.server.Close()
	}
	return code
}

// writeTrace dumps the span ring as Chrome trace JSON, the document
// /tracez serves.
func (o *Obs) writeTrace() error {
	f, err := os.Create(o.traceOut)
	if err != nil {
		return err
	}
	if err := o.Tracer.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
