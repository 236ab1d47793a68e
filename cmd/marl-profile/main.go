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
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"marlperf"
	"marlperf/internal/cli"
	"marlperf/internal/replay"
	"marlperf/internal/simcache"
	"marlperf/internal/tensor"
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

const usage = `Usage: marl-profile [flags]

Runs the characterization sweep: for each agent count, a phase-time
breakdown of a short training run plus the simulated hardware counters of
one update's sampling phase. -json prints one JSON line per configuration
instead of the text tables.

Exit codes:
  0  every configuration profiled
  1  runtime failure
  2  bad command line
  3  interrupted by SIGINT/SIGTERM between configurations
`

func main() { cli.Main(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := cli.NewFlagSet("marl-profile", usage, stderr)
	var (
		envName  = fs.String("env", "pp", "environment: pp, cn or pd")
		algoName = fs.String("algo", "maddpg", "algorithm: maddpg or matd3")
		agentsCS = fs.String("agents", "3,6", "comma-separated agent counts")
		episodes = fs.Int("episodes", 4, "episodes per configuration")
		batch    = fs.Int("batch", 512, "mini-batch size")
		fill     = fs.Int("fill", 20000, "buffer fill for the counter trace")
		workers  = fs.Int("workers", 1, "update-stage worker pool size (1 = one core, the serial pipeline the paper profiles; 0: GOMAXPROCS); phase times are per-pool, results are seed-identical")
		jsonOut  = fs.Bool("json", false, "print one machine-readable JSON line per configuration instead of the text tables")
	)
	// The span tracer is distinct from the simulated-cache access tracer
	// the counter section uses.
	obs := cli.Observe(fs, cli.Role{
		Proc: "profile", SampleUnit: "update stages", SampleDefault: 1,
		RunLogRecord: "run-event record per update step",
	})
	if code, done := cli.Parse(fs, args, false); done {
		return code
	}

	algo, err := cli.Algo(*algoName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitUsage
	}
	var envs []func() marlperf.Env
	for _, part := range strings.Split(*agentsCS, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(stderr, "bad agent count %q\n", part)
			return cli.ExitUsage
		}
		newEnv, err := cli.Env(*envName, n)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return cli.ExitUsage
		}
		envs = append(envs, newEnv)
	}

	// stdout may be the -json stream, so progress lines go to stderr.
	if code := obs.Start(stderr, stderr); code != cli.ExitOK {
		return code
	}
	defer func() { code = obs.Close(code) }()

	cfg := marlperf.DefaultConfig(algo)
	cfg.BatchSize = *batch
	cfg.BufferCapacity = 8 * *batch
	cfg.WarmupSize = *batch
	cfg.UpdateWorkers = *workers
	for _, newEnv := range envs {
		if ctx.Err() != nil {
			return cli.ExitInterrupted
		}
		if err := profileOne(newEnv(), cfg, *algoName, *episodes, *fill, *jsonOut, obs, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return cli.ExitError
		}
	}
	return cli.ExitOK
}

// profileOne profiles one configuration: a short run for the phase
// breakdown, then one update's worth of traced gathers for the counters.
func profileOne(env marlperf.Env, cfg marlperf.Config, algoName string, episodes, fill int, jsonOut bool, obs *cli.Obs, stdout io.Writer) error {
	n, batch := env.NumAgents(), cfg.BatchSize
	tr, err := marlperf.NewTrainer(cfg, env)
	if err != nil {
		return err
	}
	defer tr.Close()
	obs.AttachTrainer(tr)
	if !jsonOut {
		fmt.Fprintf(stdout, "=== %s %s, %d agents ===\n", algoName, env.Name(), n)
	}
	tr.Warmup(batch)
	start := time.Now()
	tr.RunEpisodes(episodes, nil)
	elapsed := time.Since(start)
	if !jsonOut {
		fmt.Fprintf(stdout, "%d episodes in %v\n", episodes, elapsed.Round(time.Millisecond))
		fmt.Fprint(stdout, tr.Profile().Report())
		fmt.Fprintln(stdout)
	}
	obs.Refresh(tr)

	// Simulated sampling-phase counters (perf substitute).
	spec := cli.Spec(env, fill)
	buf := replay.NewBuffer(spec)
	rng := rand.New(rand.NewSource(1))
	fillSynthetic(buf, spec, fill, rng)
	h := simcache.NewHierarchy(simcache.Ryzen3975WX())
	buf.SetTracer(h)
	sampler := replay.NewUniformSampler(buf)
	batches := make([]*replay.AgentBatch, spec.NumAgents)
	for a := range batches {
		batches[a] = replay.NewAgentBatch(batch, spec.ObsDims[a], spec.ActDim)
	}
	for trainer := 0; trainer < n; trainer++ {
		s := sampler.Sample(batch, rng)
		buf.GatherAll(s.Indices, batches)
	}
	st := h.Stats()
	if !jsonOut {
		fmt.Fprintf(stdout, "sampling-phase counters (1 update, simulated Ryzen/RTX-3090 host):\n")
		fmt.Fprintf(stdout, "  accesses %d  L1 misses %d  LLC misses %d  dTLB misses %d\n\n",
			st.Accesses, st.L1Misses, st.L3Misses, st.TLBMisses)
		return nil
	}
	profData, err := json.Marshal(tr.Profile())
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(profileJSON{
		Env:       env.Name(),
		Algo:      algoName,
		Agents:    n,
		Episodes:  episodes,
		Workers:   tr.UpdateWorkers(),
		Kernels:   tensor.KernelPath(),
		ElapsedMS: elapsed.Milliseconds(),
		Profile:   profData,
		Counters: samplingCounters{
			Accesses:   st.Accesses,
			L1Misses:   st.L1Misses,
			LLCMisses:  st.L3Misses,
			DTLBMisses: st.TLBMisses,
		},
	})
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
