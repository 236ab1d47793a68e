package marlperf

// Benchmark harness: one benchmark (or benchmark family) per table and
// figure of the paper's evaluation, each exercising the operation that
// experiment measures. The paper-style row/series output is produced by
// `go run ./cmd/marl-bench -exp <id>`; these benches track the same code
// paths under `go test -bench`.

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"marlperf/internal/core"
	"marlperf/internal/mpe"
	"marlperf/internal/nn"
	"marlperf/internal/replay"
	"marlperf/internal/simcache"
	"marlperf/internal/tensor"
)

// benchTrainer builds a trainer with a warm, prefilled buffer so each
// benchmark iteration exercises steady-state behaviour.
func benchTrainer(b *testing.B, algo core.Algorithm, env mpe.Env, sampler core.SamplerKind, neighbors, refs int, useKV bool) *core.Trainer {
	b.Helper()
	cfg := core.DefaultConfig(algo)
	cfg.BatchSize = 256
	cfg.BufferCapacity = 8192
	cfg.WarmupSize = 256
	cfg.Sampler = sampler
	cfg.Neighbors, cfg.Refs = neighbors, refs
	cfg.UseKVLayout = useKV
	tr, err := core.NewTrainer(cfg, env)
	if err != nil {
		b.Fatal(err)
	}
	tr.Warmup(512)
	return tr
}

// benchBuffer builds a filled replay buffer for sampling benchmarks.
func benchBuffer(b *testing.B, agents, fill int) (*replay.Buffer, []*replay.AgentBatch, int) {
	b.Helper()
	env := mpe.NewPredatorPrey(agents)
	spec := replay.Spec{
		NumAgents: agents,
		ObsDims:   env.ObsDims(),
		ActDim:    env.NumActions(),
		Capacity:  fill,
	}
	buf := replay.NewBuffer(spec)
	rng := rand.New(rand.NewSource(1))
	obs := make([][]float64, agents)
	act := make([][]float64, agents)
	rew := make([]float64, agents)
	nextObs := make([][]float64, agents)
	done := make([]float64, agents)
	for a := 0; a < agents; a++ {
		obs[a] = make([]float64, spec.ObsDims[a])
		nextObs[a] = make([]float64, spec.ObsDims[a])
		act[a] = make([]float64, spec.ActDim)
	}
	for t := 0; t < fill; t++ {
		for a := 0; a < agents; a++ {
			for j := range obs[a] {
				obs[a][j] = rng.Float64()
			}
			act[a][t%spec.ActDim] = 1
			rew[a] = rng.NormFloat64()
		}
		buf.Add(obs, act, rew, nextObs, done)
	}
	batches := make([]*replay.AgentBatch, agents)
	for a := range batches {
		batches[a] = replay.NewAgentBatch(1024, spec.ObsDims[a], spec.ActDim)
	}
	return buf, batches, 1024
}

// seedPriorities gives every live transition a synthetic TD error. Priority
// samplers learn of transitions through the buffer's Add listener, so one
// built after benchBuffer's fill starts with an empty tree and would panic
// on its first Sample.
func seedPriorities(buf *replay.Buffer, ps ...replay.PrioritySampler) {
	idx := make([]int, buf.Len()) // benchBuffer fills to capacity: slot order is insertion order
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(99))
	td := make([]float64, len(idx))
	for i := range td {
		td[i] = rng.Float64()
	}
	for _, p := range ps {
		p.UpdatePriorities(idx, td)
	}
}

// BenchmarkTable1EndToEnd tracks Table I: one steady-state environment step
// (action selection + env + replay, with periodic updates) per workload.
func BenchmarkTable1EndToEnd(b *testing.B) {
	cases := []struct {
		name string
		algo core.Algorithm
		env  func() mpe.Env
	}{
		{"maddpg-pp3", core.MADDPG, func() mpe.Env { return mpe.NewPredatorPrey(3) }},
		{"maddpg-cn3", core.MADDPG, func() mpe.Env { return mpe.NewCooperativeNavigation(3) }},
		{"matd3-pp3", core.MATD3, func() mpe.Env { return mpe.NewPredatorPrey(3) }},
		{"matd3-cn3", core.MATD3, func() mpe.Env { return mpe.NewCooperativeNavigation(3) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			tr := benchTrainer(b, c.algo, c.env(), core.SamplerUniform, 0, 0, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Step()
			}
		})
	}
}

// BenchmarkFig2Breakdown tracks Figure 2: a full update-all-trainers stage
// (the dominant phase) for MADDPG predator-prey.
func BenchmarkFig2Breakdown(b *testing.B) {
	tr := benchTrainer(b, core.MADDPG, mpe.NewPredatorPrey(3), core.SamplerUniform, 0, 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.UpdateAllTrainers()
	}
}

// BenchmarkFig3UpdateBreakdown tracks Figure 3: the update stage on the
// cooperative workload (phases are timed inside the trainer).
func BenchmarkFig3UpdateBreakdown(b *testing.B) {
	tr := benchTrainer(b, core.MATD3, mpe.NewCooperativeNavigation(3), core.SamplerUniform, 0, 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.UpdateAllTrainers()
	}
}

// BenchmarkFig4Counters tracks Figure 4: one sampling phase traced through
// the simulated Ryzen/RTX-3090 cache hierarchy.
func BenchmarkFig4Counters(b *testing.B) {
	buf, batches, batch := benchBuffer(b, 3, 8192)
	h := simcache.NewHierarchy(simcache.Ryzen3975WX())
	buf.SetTracer(h)
	sampler := replay.NewUniformSampler(buf)
	rng := rand.New(rand.NewSource(2))
	var s replay.Sample
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampler.SampleInto(&s, batch, rng)
		buf.GatherAll(s.Indices, batches)
	}
}

// BenchmarkFig6Scalability tracks Figure 6: the update stage as agents
// scale (the super-linear growth driver).
func BenchmarkFig6Scalability(b *testing.B) {
	for _, n := range []int{3, 6, 12} {
		b.Run(benchName("agents", n), func(b *testing.B) {
			tr := benchTrainer(b, core.MADDPG, mpe.NewPredatorPrey(n), core.SamplerUniform, 0, 0, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.UpdateAllTrainers()
			}
		})
	}
}

// BenchmarkFig8SamplingReduction tracks Figure 8: one full sampling phase
// (N agent trainers × sample + gather) per strategy.
func BenchmarkFig8SamplingReduction(b *testing.B) {
	const agents = 6
	buf, batches, batch := benchBuffer(b, agents, 20000)
	rng := rand.New(rand.NewSource(3))
	for _, v := range []struct {
		name    string
		sampler replay.Sampler
	}{
		{"uniform", replay.NewUniformSampler(buf)},
		{"n16r64", replay.NewLocalitySampler(buf, 16, 64)},
		{"n64r16", replay.NewLocalitySampler(buf, 64, 16)},
	} {
		b.Run(v.name, func(b *testing.B) {
			var s replay.Sample
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for trainer := 0; trainer < agents; trainer++ {
					v.sampler.SampleInto(&s, batch, rng)
					buf.GatherAll(s.Indices, batches)
				}
			}
		})
	}
}

// BenchmarkFig9EndToEnd tracks Figure 9: one steady-state training step
// with the baseline and the cache-aware sampler.
func BenchmarkFig9EndToEnd(b *testing.B) {
	for _, v := range []struct {
		name      string
		kind      core.SamplerKind
		neighbors int
		refs      int
	}{
		{"uniform", core.SamplerUniform, 0, 0},
		{"locality-n16r64", core.SamplerLocality, 16, 64},
	} {
		b.Run(v.name, func(b *testing.B) {
			tr := benchTrainer(b, core.MADDPG, mpe.NewPredatorPrey(3), v.kind, v.neighbors, v.refs, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Step()
			}
		})
	}
}

// BenchmarkFig10Rewards tracks Figure 10: the per-episode training cost of
// the reward-parity runs (baseline vs cache-aware).
func BenchmarkFig10Rewards(b *testing.B) {
	for _, v := range []struct {
		name      string
		kind      core.SamplerKind
		neighbors int
		refs      int
	}{
		{"baseline", core.SamplerUniform, 0, 0},
		{"n16r64", core.SamplerLocality, 16, 64},
		{"n64r16", core.SamplerLocality, 64, 16},
	} {
		b.Run(v.name, func(b *testing.B) {
			tr := benchTrainer(b, core.MADDPG, mpe.NewCooperativeNavigation(3), v.kind, v.neighbors, v.refs, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.RunEpisodes(1, nil)
			}
		})
	}
}

// BenchmarkFig11IPRewards tracks Figure 11: one prioritized sampling phase
// including the TD-error priority refresh, PER vs IP.
func BenchmarkFig11IPRewards(b *testing.B) {
	const agents = 3
	buf, batches, batch := benchBuffer(b, agents, 20000)
	rng := rand.New(rand.NewSource(4))
	td := make([]float64, batch)
	for i := range td {
		td[i] = rng.Float64()
	}
	for _, v := range []struct {
		name    string
		sampler replay.PrioritySampler
	}{
		{"per", replay.NewPERSampler(buf)},
		{"ip-locality", replay.NewIPLocalitySampler(buf, 1)},
	} {
		b.Run(v.name, func(b *testing.B) {
			seedPriorities(buf, v.sampler)
			var s replay.Sample
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for trainer := 0; trainer < agents; trainer++ {
					v.sampler.SampleInto(&s, batch, rng)
					buf.GatherAll(s.Indices, batches)
					v.sampler.UpdatePriorities(s.Indices, td[:len(s.Indices)])
				}
			}
		})
	}
}

// BenchmarkFig12CPUOnly and BenchmarkFig13CPUGPU track Figures 12-13: a
// traced sampling phase through each cross-validation platform model.
func BenchmarkFig12CPUOnly(b *testing.B) { benchPlatform(b, simcache.I79700K()) }
func BenchmarkFig13CPUGPU(b *testing.B)  { benchPlatform(b, simcache.GTX1070()) }
func benchPlatform(b *testing.B, p simcache.Platform) {
	buf, batches, batch := benchBuffer(b, 3, 8192)
	h := simcache.NewHierarchy(p)
	buf.SetTracer(h)
	sampler := replay.NewLocalitySampler(buf, 16, 64)
	rng := rand.New(rand.NewSource(5))
	var s replay.Sample
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampler.SampleInto(&s, batch, rng)
		buf.GatherAll(s.Indices, batches)
		_ = p.ModeledTimeNS(h.Stats(), 0)
	}
}

// BenchmarkFig14LayoutReorg tracks Figure 14: the three legs of the layout
// comparison — baseline scattered gather, KV row gather, and the reshaping
// pass.
func BenchmarkFig14LayoutReorg(b *testing.B) {
	const agents = 6
	buf, batches, batch := benchBuffer(b, agents, 20000)
	kv := replay.NewKVBuffer(buf.Spec())
	kv.ReorganizeFrom(buf)
	rng := rand.New(rand.NewSource(6))
	var drawn replay.Sample
	replay.NewUniformSampler(buf).SampleInto(&drawn, batch, rng)
	indices := drawn.Indices
	rows := make([]float64, batch*kv.RowStride())

	b.Run("baseline-gather", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf.GatherAll(indices, batches)
		}
	})
	b.Run("kv-row-gather", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kv.GatherRows(indices, rows)
		}
	})
	b.Run("kv-reshape", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kv.SplitRows(rows, batch, batches)
		}
	})
	b.Run("kv-fused-gather", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kv.GatherAll(indices, batches)
		}
	})
}

// BenchmarkAblationNeighborSweep sweeps the neighbor/reference trade-off of
// DESIGN.md's first ablation.
func BenchmarkAblationNeighborSweep(b *testing.B) {
	const agents = 6
	buf, batches, batch := benchBuffer(b, agents, 20000)
	rng := rand.New(rand.NewSource(7))
	for _, neigh := range []int{4, 16, 64, 256} {
		b.Run(benchName("n", neigh), func(b *testing.B) {
			s := replay.NewLocalitySampler(buf, neigh, batch/neigh)
			var sample replay.Sample
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SampleInto(&sample, batch, rng)
				buf.GatherAll(sample.Indices, batches)
			}
		})
	}
}

// BenchmarkAblationIPThresholds compares the adaptive predictor against
// fixed neighbor counts (DESIGN.md's second ablation).
func BenchmarkAblationIPThresholds(b *testing.B) {
	buf, batches, batch := benchBuffer(b, 3, 20000)
	rng := rand.New(rand.NewSource(8))
	for _, v := range []struct {
		name string
		p    replay.NeighborPredictor
	}{
		{"adaptive", replay.DefaultNeighborPredictor()},
		{"fixed1", replay.NeighborPredictor{Neighbors: []int{1}}},
		{"fixed4", replay.NeighborPredictor{Neighbors: []int{4}}},
	} {
		b.Run(v.name, func(b *testing.B) {
			s := replay.NewIPLocalitySampler(buf, 1)
			s.Predictor = v.p
			seedPriorities(buf, s)
			var sample replay.Sample
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SampleInto(&sample, batch, rng)
				buf.GatherAll(sample.Indices, batches)
			}
		})
	}
}

// BenchmarkAblationRankPER compares the two prioritized-replay variants'
// sampling cost (sum-tree proportional vs sorted rank-based).
func BenchmarkAblationRankPER(b *testing.B) {
	buf, batches, batch := benchBuffer(b, 3, 20000)
	rng := rand.New(rand.NewSource(14))
	for _, v := range []struct {
		name    string
		sampler replay.PrioritySampler
	}{
		{"proportional", replay.NewPERSampler(buf)},
		{"rank-based", replay.NewRankPERSampler(buf)},
	} {
		b.Run(v.name, func(b *testing.B) {
			seedPriorities(buf, v.sampler)
			td := make([]float64, batch)
			for i := range td {
				td[i] = rng.Float64()
			}
			var s replay.Sample
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.sampler.SampleInto(&s, batch, rng)
				buf.GatherAll(s.Indices, batches)
				v.sampler.UpdatePriorities(s.Indices, td[:len(s.Indices)])
			}
		})
	}
}

// BenchmarkAblationISBeta measures the weight-computation overhead of the
// Lemma-1 compensation (DESIGN.md's fourth ablation).
func BenchmarkAblationISBeta(b *testing.B) {
	buf, _, batch := benchBuffer(b, 3, 20000)
	rng := rand.New(rand.NewSource(9))
	for _, beta := range []float64{0, 1} {
		b.Run(benchName("beta", int(beta*10)), func(b *testing.B) {
			s := replay.NewIPLocalitySampler(buf, beta)
			seedPriorities(buf, s)
			var sample replay.Sample
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SampleInto(&sample, batch, rng)
			}
		})
	}
}

// --- Parallel update engine ---

// quartiles is a column of window means, in the order they were taken, under
// its first quartile, median and third quartile (interpolated between
// neighbours).
type quartiles struct {
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

// round3 keeps three decimals: a microsecond of a millisecond figure.
func round3(v float64) float64 { return math.Round(v*1e3) / 1e3 }

func quartilesOf(vs []float64) *quartiles {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		pos := q * float64(len(sorted)-1)
		lo := int(pos)
		hi := min(lo+1, len(sorted)-1)
		return round3(sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo]))
	}
	return &quartiles{at(0.25), at(0.5), at(0.75), vs}
}

// updateSweepRow is one agent count of the paired sweep, written to
// BENCH_update.json: milliseconds per UpdateAllTrainers on each side, how
// often the pool's window beat the serial window it was paired with, and the
// ratio of the two medians. At GOMAXPROCS = 1 the pool side is left out.
type updateSweepRow struct {
	Agents      int        `json:"agents"`
	Batch       int        `json:"batch"`
	PoolWorkers int        `json:"pool_workers"`
	Pairs       int        `json:"pairs"`
	WindowMs    int64      `json:"window_ms"`
	SerialMs    *quartiles `json:"serial_ms"`
	PoolMs      *quartiles `json:"pool_ms,omitempty"`
	PoolWins    *int       `json:"pool_wins,omitempty"`
	Ratio       float64    `json:"serial_over_pool,omitempty"`
	Note        string     `json:"note,omitempty"`
}

// BenchmarkUpdateWorkersSweep is the evidence the update's one parallelism
// mechanism rests on (DESIGN.md §7, EXPERIMENTS.md "tried and not kept"):
// UpdateWorkers = 1 against the per-agent pool at min(GOMAXPROCS, agents)
// workers, MADDPG predator-prey at batch 1024, as pairs of windows in one
// process. This host's speed drifts by a third within minutes, so the two
// sides alternate — serial first in even pairs, pool first in odd ones — and
// a side is a column of per-window means, never one long run. A window is a
// discarded warm-up (a quarter of its length, one update at least) and then
// whole updates until its length has passed (one at least).
//
// -benchtime Nx sets both sizes: N pairs, of windows of N × 200 ms up to 2 s.
// `make bench-workers` runs 10x — ten pairs of 0.5 s + 2 s windows, the
// protocol of the recorded table — and rewrites BENCH_update.json; CI's 1x is
// a smoke of one short pair. Every cell trains identically for a fixed seed:
// the sweep varies throughput only.
func BenchmarkUpdateWorkersSweep(b *testing.B) {
	const batch = 1024
	var rows []updateSweepRow
	for _, agents := range []int{3, 6, 12, 24} {
		poolWorkers := min(runtime.GOMAXPROCS(0), agents)
		newSide := func(workers int) *core.Trainer {
			cfg := core.DefaultConfig(core.MADDPG)
			cfg.BatchSize = batch
			cfg.BufferCapacity = 2 * batch
			cfg.WarmupSize = batch
			cfg.UpdateWorkers = workers
			tr, err := core.NewTrainer(cfg, mpe.NewPredatorPrey(agents))
			if err != nil {
				b.Fatal(err)
			}
			tr.Warmup(2 * batch)
			return tr
		}
		sides := []*core.Trainer{newSide(1)} // serial, then the pool if there is one
		if poolWorkers > 1 {
			sides = append(sides, newSide(poolWorkers))
		}
		b.Run(benchName("agents", agents), func(b *testing.B) {
			length := min(time.Duration(b.N)*200*time.Millisecond, 2*time.Second)
			window := func(tr *core.Trainer) float64 { // ms per update
				for t0 := time.Now(); ; {
					tr.UpdateAllTrainers()
					if time.Since(t0) >= length/4 {
						break
					}
				}
				t0, updates := time.Now(), 0
				for {
					tr.UpdateAllTrainers()
					updates++
					if spent := time.Since(t0); spent >= length {
						return round3(spent.Seconds() * 1e3 / float64(updates))
					}
				}
			}
			ms := make([][]float64, len(sides))
			wins := 0
			for pair := 0; pair < b.N; pair++ {
				for k := range sides {
					side := (k + pair) % len(sides)
					ms[side] = append(ms[side], window(sides[side]))
				}
				if len(sides) == 2 && ms[1][pair] < ms[0][pair] {
					wins++
				}
			}
			row := updateSweepRow{
				Agents: agents, Batch: batch, PoolWorkers: poolWorkers, Pairs: b.N,
				WindowMs: length.Milliseconds(), SerialMs: quartilesOf(ms[0]),
			}
			b.ReportMetric(0, "ns/op") // two sides: no one time per op
			b.ReportMetric(row.SerialMs.Median, "serial-ms")
			if len(sides) == 2 {
				row.PoolMs, row.PoolWins = quartilesOf(ms[1]), &wins
				row.Ratio = round3(row.SerialMs.Median / row.PoolMs.Median)
				b.ReportMetric(row.PoolMs.Median, "pool-ms")
				b.ReportMetric(row.Ratio, "serial/pool")
				b.ReportMetric(float64(wins), "pool-wins")
			} else {
				row.Note = "GOMAXPROCS=1: one worker is all the pool can have, it has nothing to show"
			}
			// The testing package runs each sub-benchmark at b.N = 1 before
			// the requested count: keep the last measurement of a cell.
			if n := len(rows); n > 0 && rows[n-1].Agents == agents {
				rows[n-1] = row
			} else {
				rows = append(rows, row)
			}
		})
		for _, tr := range sides {
			tr.Close()
		}
	}
	if len(rows) == 0 {
		return
	}
	writeBenchFile(b, "BENCH_update.json", "UpdateWorkersSweep", "ms/update", rows)
}

// writeBenchFile writes one sweep's rows to a BENCH_*.json file under the
// provenance stamp they all carry: what was measured, and the toolchain,
// core count, kernel path (tensor.KernelPath: throughput depends on whether
// the CPU has AVX2), source revision and host it was measured with.
func writeBenchFile(b *testing.B, file, benchmark, unit string, rows any) {
	out := struct {
		Benchmark  string `json:"benchmark"`
		GoVersion  string `json:"go_version"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Kernels    string `json:"kernels"`
		Commit     string `json:"commit"`
		Host       string `json:"host"`
		Unit       string `json:"unit"`
		Results    any    `json:"results"`
	}{benchmark, runtime.Version(), runtime.GOMAXPROCS(0), tensor.KernelPath(), benchCommit(), benchHost(), unit, rows}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote %s", file)
}

// benchCommit identifies the source revision a sweep was produced from:
// the VCS stamp when the test binary carries one, else the checkout's
// HEAD, else "unknown". Either way a tree with uncommitted changes is
// marked "-dirty": test binaries carry no stamp, and a sweep regenerated
// inside a change would otherwise claim the hash of the parent it was not
// measured on. The sweeps' own output files do not count: the first sweep of
// a run rewrites one, and the rest would call a clean commit dirty.
func benchCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			if status, err := exec.Command("git", "status", "--porcelain", "--", ".", ":!BENCH_*.json").Output(); err == nil && len(status) > 0 {
				rev += "-dirty"
			}
			return rev
		}
	}
	return "unknown"
}

func benchHost() string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return "unknown"
}

// BenchmarkSampleIntoGather tracks the zero-allocation sampling hot path:
// steady-state SampleInto + GatherAll must report 0 allocs/op for every
// sampler strategy.
func BenchmarkSampleIntoGather(b *testing.B) {
	buf, batches, batch := benchBuffer(b, 6, 20000)
	for _, v := range []struct {
		name    string
		sampler replay.Sampler
	}{
		{"uniform", replay.NewUniformSampler(buf)},
		{"locality-n16r64", replay.NewLocalitySampler(buf, 16, 64)},
		{"per", replay.NewPERSampler(buf)},
		{"ip-locality", replay.NewIPLocalitySampler(buf, 1)},
	} {
		b.Run(v.name, func(b *testing.B) {
			if p, ok := v.sampler.(replay.PrioritySampler); ok {
				seedPriorities(buf, p)
			}
			rng := rand.New(rand.NewSource(21))
			var dst replay.Sample
			v.sampler.SampleInto(&dst, batch, rng) // warm scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.sampler.SampleInto(&dst, batch, rng)
				buf.GatherAll(dst.Indices, batches)
			}
		})
	}
}

// BenchmarkUpdateAllocs reports steady-state heap allocations of the full
// update stage (sample + gather + forward/backward), serial vs pooled.
func BenchmarkUpdateAllocs(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			cfg := core.DefaultConfig(core.MADDPG)
			cfg.BatchSize = 256
			cfg.BufferCapacity = 8192
			cfg.WarmupSize = 256
			cfg.UpdateWorkers = workers
			tr, err := core.NewTrainer(cfg, mpe.NewPredatorPrey(3))
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			tr.Warmup(512)
			tr.UpdateAllTrainers()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.UpdateAllTrainers()
			}
		})
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkCriticForward measures the centralized critic's forward pass at
// the paper's batch size for a 6-agent joint input.
func BenchmarkCriticForward(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	env := mpe.NewPredatorPrey(6)
	joint := 0
	for _, d := range env.ObsDims() {
		joint += d
	}
	joint += 6 * env.NumActions()
	net := nn.NewMLP(rng, joint, 64, 64, 1)
	x := tensor.New(1024, joint)
	x.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

// BenchmarkEnvStep measures one physics step of each particle scenario.
func BenchmarkEnvStep(b *testing.B) {
	for _, v := range []struct {
		name string
		env  mpe.Env
	}{
		{"pp6", mpe.NewPredatorPrey(6)},
		{"cn6", mpe.NewCooperativeNavigation(6)},
	} {
		b.Run(v.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			v.env.Reset(rng)
			actions := make([]int, v.env.NumAgents())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range actions {
					actions[j] = i % v.env.NumActions()
				}
				v.env.Step(actions)
			}
		})
	}
}

// BenchmarkSumTree measures the PER priority structure's hot operations.
func BenchmarkSumTree(b *testing.B) {
	tree := replay.NewSumTree(1 << 20)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 1<<20; i++ {
		tree.Set(i, rng.Float64())
	}
	b.Run("set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree.Set(i&(1<<20-1), float64(i&1023))
		}
	})
	b.Run("find", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tree.Find(rng.Float64() * tree.Total())
		}
	})
}

// BenchmarkCacheSimAccess measures the trace simulator's per-access cost.
func BenchmarkCacheSimAccess(b *testing.B) {
	h := simcache.NewHierarchy(simcache.Ryzen3975WX())
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(rng.Uint64()%(1<<32), 128)
	}
}

func benchName(prefix string, v int) string {
	return prefix + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
