// Command bench is the repository's benchmark: four closed-loop workloads
// over the five-tier system, five end-to-end metrics each, and a traced
// re-run that attributes them to layers. README.md in this directory has
// the inventory; BENCHMARK.json at the repository root declares it.
//
// One invocation runs one workload once:
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// and prints a human-readable report followed by one JSON object on the
// last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one closed loop of identical ops over seeded inputs. All
// methods are called from the driver goroutine.
type workload interface {
	// setup builds every server, client and buffer, prefills through the
	// real write path and runs the warm-up ops.
	setup() error
	// startTimed is called once, after set-up and a forced GC, right
	// before the first timed op; workloads snapshot their counters here.
	startTimed()
	// op runs timed op number i (0-based). An error is a failed op.
	op(i int) error
	// stopTimed is called once, right after the last timed op.
	stopTimed()
	// check runs the correctness checks after ops timed ops and returns
	// how many ops' worth of output they found wrong.
	check(ops int) (failed int, err error)
	// layers reports the workload's span- and counter-derived per-layer
	// metrics for the traced section sec.
	layers(sec *section, sp *spanData, m layerSet)
	// floors runs the micro-runs of the layers this workload exercises.
	floors(m floorSet)
	// blockOps is how many consecutive ops form one throughput sample
	// (about half a second of work).
	blockOps() int
	close()
}

// config is what every workload is built from.
type config struct {
	seed  int64
	short bool      // tiny sizes, for the tests
	rec   *recorder // nil in the untraced run
	log   io.Writer
}

var workloads = map[string]func(config) workload{
	"learn-local":   func(c config) workload { return &learnLocal{cfg: c} },
	"fabric-sample": func(c config) workload { return &fabricSample{cfg: c} },
	"fabric-ingest": func(c config) workload { return &fabricIngest{cfg: c} },
	"loop-lockstep": func(c config) workload { return &loopLockstep{cfg: c} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// benchProcs is the GOMAXPROCS every run is measured at. It is a constant,
// not a flag: the end-to-end numbers are only comparable at one value, and
// on the two-vCPU shared host the benchmark was built on, runs that spread
// over both vCPUs differ by 19–41 % between quartiles on identical code
// (README.md, "What the host does"). What one core leaves out — the
// update engine's parallel workers and truly simultaneous shard fan-out — no
// workload here covers; README.md says so.
const benchProcs = 1

// setupRepeats is how many times the untraced run sets the workload up;
// setup_s is the median, and the last instance is the one measured.
const setupRepeats = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	ops      int
	trace    int
	short    bool
	outDir   string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 26, "length of the timed section")
	fs.IntVar(&o.ops, "ops", 0, "run exactly this many timed ops instead of -seconds (A/A and tests)")
	fs.IntVar(&o.trace, "trace", 0, "1: the traced run, reporting per-layer metrics")
	fs.BoolVar(&o.short, "short", false, "tiny buffers and batches (tests only; numbers are meaningless)")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for the Chrome-trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	build, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 && o.ops <= 0 {
		fmt.Fprintln(stderr, "bench: need -seconds > 0 or -ops > 0")
		return 2
	}

	runtime.GOMAXPROCS(benchProcs)
	fmt.Fprintf(stdout, "bench: workload=%s seed=%d trace=%d host=%s gomaxprocs=%d go=%s commit=%s\n",
		o.workload, o.seed, o.trace, hostName(), benchProcs, runtime.Version(), commit())

	var res *result
	var err error
	if o.trace == 0 {
		res, err = runUntraced(o, build, stdout)
	} else {
		res, err = runTraced(o, build, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON object on the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// section is one measured run of consecutive ops. The timed section is cut
// into blocks of consecutive ops (about half a second each), every figure is
// taken per block, and the run reports the block at the quiet decile: the
// shared host slows the process by 10–50 % for seconds at a time, so the
// median block says which state the host was in for most of the run, while
// the block a tenth of the way in from the quietest says what the program
// costs (README.md, "What the host does").
type section struct {
	ops      int
	failed   int
	wall     time.Duration
	latMs    []float64 // per-op latency
	blockOp  []float64 // per-block wall ms per op
	blockMs  []float64 // per-block CPU ms per op
	blockP50 []float64 // per-block median op latency, ms
	startNs  int64     // recorder clock at the first op (traced only)
	endNs    int64
	allocKB  float64
	gcN      uint32
	gcPause  time.Duration
	firstEr  error
}

// quietDecile is the share of a run's blocks that are quieter than the one
// it reports: the 10th-percentile block of a time, the 90th of a rate.
const quietDecile = 0.1

// The section's figures, all as the clock ran in the quiet-decile block.
func (s *section) opsPerS() float64    { return 1e3 / percentile(s.blockOp, quietDecile) }
func (s *section) cpuMsPerOp() float64 { return percentile(s.blockMs, quietDecile) }
func (s *section) opP50Ms() float64    { return percentile(s.blockP50, quietDecile) }

// measure runs ops 0, 1, 2, … until the op count or the time budget
// is reached, in blocks of consecutive ops. A run always completes at least
// one block.
func measure(w workload, rec *recorder, maxOps int, budget time.Duration) *section {
	s := &section{latMs: make([]float64, 0, 1<<16)}
	block := w.blockOps()
	if maxOps > 0 && maxOps < block {
		block = maxOps
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if rec != nil {
		s.startNs = rec.now()
	}
	start := time.Now()
	blockStart, blockCPU := start, cpuTime()
	for done := false; !done; {
		i := s.ops
		rec.setOp(i)
		t := time.Now()
		err := w.op(i)
		now := time.Now()
		s.latMs = append(s.latMs, ms(float64(now.Sub(t))))
		s.ops++
		if err != nil {
			s.failed++
			if s.firstEr == nil {
				s.firstEr = fmt.Errorf("op %d: %w", i, err)
			}
		}
		if s.ops%block != 0 {
			continue
		}
		cpu := cpuTime()
		s.blockOp = append(s.blockOp, ms(float64(now.Sub(blockStart)))/float64(block))
		s.blockMs = append(s.blockMs, ms(float64(cpu-blockCPU))/float64(block))
		s.blockP50 = append(s.blockP50, median(s.latMs[len(s.latMs)-block:]))
		blockStart, blockCPU = now, cpu
		if maxOps > 0 {
			done = s.ops+block > maxOps
		} else {
			done = now.Sub(start) >= budget
		}
	}
	s.wall = time.Since(start)
	w.stopTimed()
	if rec != nil {
		s.endNs = rec.now()
	}
	runtime.ReadMemStats(&m1)
	s.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(s.ops)
	s.gcN = m1.NumGC - m0.NumGC
	s.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return s
}

// describe prints how the section's blocks and ops were distributed, beside
// the quiet-decile figures that are reported.
func (s *section) describe(w io.Writer, what string) {
	fmt.Fprintf(w, "%s section: %d ops in %.3f s, %d failed; %d blocks, ops/s min %.4g median %.4g max %.4g; op p50 of a block min %.4f median %.4f max %.4f ms; over all %d ops p50 %.4f p95 %.4f ms\n",
		what, s.ops, s.wall.Seconds(), s.failed, len(s.blockOp),
		1e3/percentile(s.blockOp, 1), 1e3/median(s.blockOp), 1e3/percentile(s.blockOp, 0),
		percentile(s.blockP50, 0), median(s.blockP50), percentile(s.blockP50, 1),
		len(s.latMs), median(s.latMs), percentile(s.latMs, 0.95))
}

// ready sets a workload up, collects the garbage set-up left, and tells it
// the timed section starts. It returns the set-up time in seconds.
func ready(w workload) (float64, error) {
	t := time.Now()
	if err := w.setup(); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	d := time.Since(t)
	runtime.GC()
	w.startTimed()
	return d.Seconds(), nil
}

// verify runs the workload's checks and folds them into the section.
func verify(w workload, s *section, stdout io.Writer) bool {
	failed, err := w.check(s.ops)
	if s.firstEr != nil {
		fmt.Fprintf(stdout, "first failed op: %v\n", s.firstEr)
	}
	if err != nil {
		fmt.Fprintf(stdout, "check failed: %v\n", err)
		if failed == 0 {
			failed = 1
		}
	}
	s.failed += failed
	if s.failed > s.ops {
		s.failed = s.ops
	}
	return s.failed == 0
}

func budgetOf(o options, share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

// runUntraced produces the end-to-end metrics: set-up (repeated, median
// reported), one timed section with no wrapper and no recorder anywhere,
// then the checks.
func runUntraced(o options, build func(config) workload, stdout io.Writer) (*result, error) {
	cfg := config{seed: o.seed, short: o.short, log: stdout}
	var setups []float64
	var w workload
	for k := 0; k < setupRepeats; k++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		w = build(cfg)
		d, err := ready(w)
		if err != nil {
			w.close()
			return nil, err
		}
		setups = append(setups, d)
	}
	defer w.close()

	s := measure(w, nil, o.ops, budgetOf(o, 1))
	correct := verify(w, s, stdout)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"ops_per_s":     s.opsPerS(),
		"op_p50_ms":     s.opP50Ms(),
		"cpu_ms_per_op": s.cpuMsPerOp(),
		"peak_rss_mb":   rss,
		"setup_s":       median(setups),
	}
	s.describe(stdout, "timed")
	fmt.Fprintf(stdout, "set-ups: %.4g s\n", setups)
	return report(stdout, endToEnd, values, s, correct), nil
}

// runTraced produces the per-layer metrics. It measures a bare instance
// for half the time (the baseline of the tracing-overhead ratio), then an
// instance built around the recorder and the wrappers for the other half,
// and finally the floor micro-runs.
func runTraced(o options, build func(config) workload, stdout io.Writer) (*result, error) {
	bare := build(config{seed: o.seed, short: o.short, log: io.Discard})
	if _, err := ready(bare); err != nil {
		bare.close()
		return nil, err
	}
	base := measure(bare, nil, o.ops/2, budgetOf(o, 0.5))
	bare.close()
	runtime.GC()
	debug.FreeOSMemory()

	rec := newRecorder()
	w := build(config{seed: o.seed, short: o.short, rec: rec, log: stdout})
	defer w.close()
	if _, err := ready(w); err != nil {
		return nil, err
	}
	s := measure(w, rec, o.ops/2, budgetOf(o, 0.5))
	correct := verify(w, s, stdout)
	if base.failed > 0 {
		correct = false
		s.failed += base.failed
	}

	spans := rec.snapshot(s.startNs)
	sp := newSpanData(spans)
	m := layerSet{}
	m.set("bench.trace_overhead_ratio", s.opsPerS()/base.opsPerS())
	m.set("bench.span_coverage", coverage(spans, s.startNs, s.endNs))
	m.set("bench.op_p95_ms", percentile(s.latMs, 0.95))
	m.set("bench.alloc_kb_per_op", s.allocKB)
	m.set("bench.gc_cycles", float64(s.gcN))
	m.set("bench.gc_pause_ms", ms(float64(s.gcPause)))
	w.layers(s, sp, m)
	w.floors(newFloorSet(m, o.short))

	path := filepath.Join(o.outDir, o.workload+".trace.json")
	if err := writeChromeTrace(path, "bench/"+o.workload, spans); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	base.describe(stdout, "bare baseline")
	s.describe(stdout, "traced")
	fmt.Fprintf(stdout, "%d spans, trace in %s\n", len(spans), path)
	sp.printSelfTable(stdout, s)
	s.ops += base.ops
	return report(stdout, perLayer, m, s, correct), nil
}

// report prints every declared metric by name with its unit and builds the
// JSON result. A metric the run did not set is reported as 0.
func report(stdout io.Writer, defs []metricDef, values map[string]float64, s *section, correct bool) *result {
	res := &result{Correct: correct, Attempted: s.ops, Failed: s.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := values[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(stdout, "ops attempted %d, failed %d\n", res.Attempted, res.Failed)
	return res
}

func hostName() string {
	h, err := os.Hostname()
	if err != nil {
		return "unknown"
	}
	return h
}

// commit is the revision the toolchain stamped into the binary, or
// "unknown" when it was built outside a git work tree (the benchmark
// driver builds from an exported copy).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
