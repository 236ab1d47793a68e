// Command marl-profile runs the characterization sweep of §III: phase-time
// breakdowns for a chosen workload across agent counts, plus the simulated
// hardware counters of the sampling phase.
//
// Usage:
//
//	marl-profile -env pp -algo maddpg -agents 3,6,12 -episodes 4
//	marl-profile -agents 3,6 -json                   # machine-readable JSONL
//	marl-profile -agents 12 -metrics-addr :9090      # live /metrics + pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"marlperf"
	"marlperf/internal/core"
	"marlperf/internal/replay"
	"marlperf/internal/simcache"
	"marlperf/internal/telemetry"
	"marlperf/internal/tensor"
	"marlperf/internal/trace"
)

// samplingCounters is the simulated hardware-counter block of one config.
type samplingCounters struct {
	Accesses   uint64 `json:"accesses"`
	L1Misses   uint64 `json:"l1_misses"`
	LLCMisses  uint64 `json:"llc_misses"`
	DTLBMisses uint64 `json:"dtlb_misses"`
}

// profileJSON is one -json output line (one per configuration).
type profileJSON struct {
	Env       string           `json:"env"`
	Algo      string           `json:"algo"`
	Agents    int              `json:"agents"`
	Episodes  int              `json:"episodes"`
	Workers   int              `json:"workers"`
	Kernels   string           `json:"kernels"` // tensor.KernelPath: timings depend on it
	ElapsedMS int64            `json:"elapsed_ms"`
	Profile   json.RawMessage  `json:"profile"`
	Counters  samplingCounters `json:"sampling_counters"`
}

func main() {
	var (
		envName     = flag.String("env", "pp", "environment: pp or cn")
		algoName    = flag.String("algo", "maddpg", "algorithm: maddpg or matd3")
		agentsCS    = flag.String("agents", "3,6", "comma-separated agent counts")
		episodes    = flag.Int("episodes", 4, "episodes per configuration")
		batch       = flag.Int("batch", 512, "mini-batch size")
		fill        = flag.Int("fill", 20000, "buffer fill for the counter trace")
		workers     = flag.Int("workers", 1, "update-stage worker pool size (0: GOMAXPROCS); phase times are per-pool, results are seed-identical")
		jsonOut     = flag.Bool("json", false, "print one machine-readable JSON line per configuration instead of the text tables")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /profilez, /tracez, /healthz and /debug/pprof on this address while profiling")
		runlogPath  = flag.String("runlog", "", "append one JSONL run-event record per update step to this file")
		traceOn     = flag.Bool("trace", false, "record distributed-trace spans for sampled update stages; costs nothing when off")
		traceSample = flag.Int("trace-sample", 1, "with -trace: trace every Nth update stage")
		traceOut    = flag.String("trace-out", "", "with -trace: write the recorded spans as Chrome trace JSON to this file at exit")
	)
	flag.Parse()

	algo := marlperf.MADDPG
	if *algoName == "matd3" {
		algo = marlperf.MATD3
	}

	var counts []int
	for _, part := range strings.Split(*agentsCS, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad agent count %q\n", part)
			os.Exit(2)
		}
		counts = append(counts, n)
	}

	var (
		reg      *telemetry.Registry
		col      *telemetry.PhaseCollector
		profSnap *telemetry.JSONSnapshot
		runLog   *telemetry.RunLog
	)
	// spanTracer is the distributed-trace span recorder, distinct from the
	// simulated-cache access tracer the counter section uses.
	var spanTracer *trace.Tracer
	if *traceOn {
		if *traceSample < 1 {
			fmt.Fprintf(os.Stderr, "-trace-sample %d: want ≥1\n", *traceSample)
			os.Exit(2)
		}
		spanTracer = trace.New("profile", trace.DefaultCapacity)
		spanTracer.SetSampleEvery(uint64(*traceSample))
		spanTracer.SetEnabled(true)
	} else if *traceOut != "" {
		fmt.Fprintln(os.Stderr, "-trace-out requires -trace")
		os.Exit(2)
	}
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		col = telemetry.NewPhaseCollector(reg)
		profSnap = &telemetry.JSONSnapshot{}
		srvCfg := telemetry.ServerConfig{Registry: reg, Profilez: profSnap}
		if spanTracer != nil {
			srvCfg.Tracez = spanTracer.Handler()
		}
		srv, err := telemetry.StartServer(*metricsAddr, srvCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics on http://%s\n", srv.Addr())
	}
	if *runlogPath != "" {
		l, err := telemetry.CreateRunLog(*runlogPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer l.Close()
		runLog = l
	}

	enc := json.NewEncoder(os.Stdout)
	for _, n := range counts {
		var env marlperf.Env
		if *envName == "pp" {
			env = marlperf.NewPredatorPrey(n)
		} else {
			env = marlperf.NewCooperativeNavigation(n)
		}
		cfg := marlperf.DefaultConfig(algo)
		cfg.BatchSize = *batch
		cfg.BufferCapacity = 8 * *batch
		cfg.WarmupSize = *batch
		cfg.UpdateWorkers = *workers
		tr, err := marlperf.NewTrainer(cfg, env)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if col != nil {
			tr.SetPhaseObserver(col)
		}
		tr.SetTracer(spanTracer)
		if runLog != nil {
			tr.SetUpdateListener(func(ev core.UpdateEvent) {
				if err := runLog.Append(ev); err != nil {
					fmt.Fprintln(os.Stderr, "warning: run log append failed:", err)
				}
			})
		}
		if !*jsonOut {
			fmt.Printf("=== %s %s, %d agents ===\n", *algoName, env.Name(), n)
		}
		tr.Warmup(*batch)
		start := time.Now()
		tr.RunEpisodes(*episodes, nil)
		elapsed := time.Since(start)
		if !*jsonOut {
			fmt.Printf("%d episodes in %v\n", *episodes, elapsed.Round(time.Millisecond))
			fmt.Print(tr.Profile().Report())
			fmt.Println()
		}
		if profSnap != nil {
			if data, err := json.Marshal(tr.Profile()); err == nil {
				profSnap.Set(data)
			}
		}
		if runLog != nil {
			if err := runLog.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "warning: run log flush failed:", err)
			}
		}

		// Simulated sampling-phase counters (perf substitute).
		spec := replay.Spec{
			NumAgents: env.NumAgents(),
			ObsDims:   env.ObsDims(),
			ActDim:    env.NumActions(),
			Capacity:  *fill,
		}
		buf := replay.NewBuffer(spec)
		rng := rand.New(rand.NewSource(1))
		fillSynthetic(buf, spec, *fill, rng)
		h := simcache.NewHierarchy(simcache.Ryzen3975WX())
		buf.SetTracer(h)
		sampler := replay.NewUniformSampler(buf)
		batches := make([]*replay.AgentBatch, spec.NumAgents)
		for a := range batches {
			batches[a] = replay.NewAgentBatch(*batch, spec.ObsDims[a], spec.ActDim)
		}
		for trainer := 0; trainer < n; trainer++ {
			s := sampler.Sample(*batch, rng)
			buf.GatherAll(s.Indices, batches)
		}
		st := h.Stats()
		ctrs := samplingCounters{
			Accesses:   st.Accesses,
			L1Misses:   st.L1Misses,
			LLCMisses:  st.L3Misses,
			DTLBMisses: st.TLBMisses,
		}
		if *jsonOut {
			profData, err := json.Marshal(tr.Profile())
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := enc.Encode(profileJSON{
				Env:       env.Name(),
				Algo:      *algoName,
				Agents:    n,
				Episodes:  *episodes,
				Workers:   tr.UpdateWorkers(),
				Kernels:   tensor.KernelPath(),
				ElapsedMS: elapsed.Milliseconds(),
				Profile:   profData,
				Counters:  ctrs,
			}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			fmt.Printf("sampling-phase counters (1 update, simulated Ryzen/RTX-3090 host):\n")
			fmt.Printf("  accesses %d  L1 misses %d  LLC misses %d  dTLB misses %d\n\n",
				st.Accesses, st.L1Misses, st.L3Misses, st.TLBMisses)
		}
		tr.Close()
	}
	if spanTracer != nil && *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = spanTracer.WriteChrome(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "writing trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d spans)\n", *traceOut, spanTracer.Len())
	}
}

func fillSynthetic(buf *replay.Buffer, spec replay.Spec, n int, rng *rand.Rand) {
	obs := make([][]float64, spec.NumAgents)
	act := make([][]float64, spec.NumAgents)
	rew := make([]float64, spec.NumAgents)
	nextObs := make([][]float64, spec.NumAgents)
	done := make([]float64, spec.NumAgents)
	for a := 0; a < spec.NumAgents; a++ {
		obs[a] = make([]float64, spec.ObsDims[a])
		nextObs[a] = make([]float64, spec.ObsDims[a])
		act[a] = make([]float64, spec.ActDim)
	}
	for t := 0; t < n; t++ {
		for a := 0; a < spec.NumAgents; a++ {
			for j := range obs[a] {
				obs[a][j] = rng.Float64()
				nextObs[a][j] = rng.Float64()
			}
			act[a][t%spec.ActDim] = 1
			rew[a] = rng.NormFloat64()
		}
		buf.Add(obs, act, rew, nextObs, done)
	}
}
