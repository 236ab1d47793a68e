package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"marlperf/internal/replay"
	"marlperf/internal/simcache"
)

// Figure 14 paper values: sampling-phase change (%) including the
// reshaping cost, and §VI-C2's exclusive inter-agent gather speedups.
var fig14PaperInclusive = map[envKind]map[int]float64{
	envPredatorPrey: {3: -37.1, 6: -10.35, 12: 9.3, 24: 25.8},
	envCoopNav:      {3: -63.8, 6: -19.7, 12: 4.8, 24: 15.23},
}
var fig14PaperExclusive = map[envKind]map[int]float64{
	envPredatorPrey: {3: 1.36, 6: 2.26, 12: 4.41, 24: 9.55},
	envCoopNav:      {3: 1.18, 6: 1.71, 12: 3.44, 24: 7.03},
}

func init() {
	register(&Runner{
		ID:          "fig14",
		Description: "Figure 14: transition data-layout reorganization — sampling-phase change incl. reshaping, and exclusive gather speedup",
		Run:         runFig14,
	})
}

// layoutMeasurement holds the timed legs of one configuration.
type layoutMeasurement struct {
	baseline   time.Duration // per-agent layout: N scattered gathers per trainer
	kvGather   time.Duration // KV layout: one contiguous row copy per key
	kvReshape  time.Duration // splitting gathered rows back into per-agent tensors
	kvSampling time.Duration // index generation on the KV side
}

// measureLayout times scale.SamplingIters sampling phases in both layouts.
// The KV side runs the paper's pipeline: O(m) row gathers (the exclusive
// win) followed by the data-reshaping pass that converts interleaved rows
// into the per-agent tensors the networks consume (charged in the
// inclusive numbers).
func measureLayout(kind envKind, agents int, scale Scale) layoutMeasurement {
	spec := newSpec(kind, agents, scale.BufferFill)
	buf := replay.NewBuffer(spec)
	rng := rand.New(rand.NewSource(51))
	fillSynthetic(buf, scale.BufferFill, rng)
	kv := replay.NewKVBuffer(spec)
	kv.ReorganizeFrom(buf)
	batches := newBatches(spec, scale.Batch)
	sampler := replay.NewUniformSampler(buf)
	iters := scale.SamplingIters

	// Pre-draw index sets so both layouts see identical index streams.
	indexSets := make([][]int, iters*agents)
	for i := range indexSets {
		var s replay.Sample
		sampler.SampleInto(&s, scale.Batch, rng)
		indexSets[i] = s.Indices
	}

	var m layoutMeasurement
	start := time.Now()
	for _, idx := range indexSets {
		buf.GatherAll(idx, batches)
	}
	m.baseline = time.Since(start)

	rows := make([]float64, scale.Batch*kv.RowStride())
	start = time.Now()
	for _, idx := range indexSets {
		kv.GatherRows(idx, rows)
	}
	m.kvGather = time.Since(start)

	start = time.Now()
	for range indexSets {
		kv.SplitRows(rows, scale.Batch, batches)
	}
	m.kvReshape = time.Since(start)
	return m
}

func runFig14(scale Scale) *Result {
	incl := &Table{
		Title:   "Figure 14 reproduction: sampling-phase change with layout reorganization (reshaping included)",
		Headers: []string{"env", "agents", "baseline", "kv gather", "reshape", "change", "paper"},
		Notes: []string{
			"positive = faster; kv total = gather + reshape (converting interleaved rows to per-agent tensors)",
			"paper shape: slowdown at 3-6 agents where reshaping dominates, crossover, then speedup by 24 agents",
		},
	}
	excl := &Table{
		Title:   "Section VI-C2 reproduction: inter-agent gather speedup excluding reshaping",
		Headers: []string{"env", "agents", "baseline gather", "kv gather", "speedup", "paper"},
		Notes: []string{
			"paper shape: speedup grows steadily with agent count (1.36x-9.55x PP, 1.18x-7.03x CN)",
		},
	}
	miss := &Table{
		Title:   "Figure 14 memory-system view: simulated LLC misses and dTLB misses per layout",
		Headers: []string{"env", "agents", "baseline LLC", "kv LLC", "LLC ratio", "baseline dTLB", "kv dTLB", "dTLB ratio"},
		Notes: []string{
			"trace-driven cache model; the baseline touches 5·N distant regions per index, the KV layout one row",
			"the paper's growing exclusive speedup shows here as a miss ratio that widens with agent count",
		},
	}
	for _, kind := range []envKind{envPredatorPrey, envCoopNav} {
		for _, n := range scale.AgentCounts {
			m := measureLayout(kind, n, scale)
			kvTotal := m.kvGather + m.kvReshape
			incl.Rows = append(incl.Rows, []string{
				kind.short(), fmt.Sprint(n),
				m.baseline.Round(time.Microsecond).String(),
				m.kvGather.Round(time.Microsecond).String(),
				m.kvReshape.Round(time.Microsecond).String(),
				pct(reduction(m.baseline.Seconds(), kvTotal.Seconds())),
				pct(fig14PaperInclusive[kind][n]),
			})
			excl.Rows = append(excl.Rows, []string{
				kind.short(), fmt.Sprint(n),
				m.baseline.Round(time.Microsecond).String(),
				m.kvGather.Round(time.Microsecond).String(),
				fmt.Sprintf("%.2fx", m.baseline.Seconds()/m.kvGather.Seconds()),
				fmt.Sprintf("%.2fx", fig14PaperExclusive[kind][n]),
			})

			base, kv := traceLayoutStats(kind, n, scale)
			miss.Rows = append(miss.Rows, []string{
				kind.short(), fmt.Sprint(n),
				fmt.Sprint(base.L3Misses), fmt.Sprint(kv.L3Misses),
				fmt.Sprintf("%.2fx", ratio(base.L3Misses, kv.L3Misses)),
				fmt.Sprint(base.TLBMisses), fmt.Sprint(kv.TLBMisses),
				fmt.Sprintf("%.2fx", ratio(base.TLBMisses, kv.TLBMisses)),
			})
		}
	}
	return &Result{ID: "fig14", Tables: []*Table{incl, excl, miss}}
}

// traceLayoutStats replays identical index streams through both layouts'
// address traces and returns (baseline, kv) hierarchy stats.
func traceLayoutStats(kind envKind, agents int, scale Scale) (simcache.Stats, simcache.Stats) {
	fill := cappedFill(newSpec(kind, agents, 1), scale.BufferFill)
	spec := newSpec(kind, agents, fill)
	buf := replay.NewBuffer(spec)
	rng := rand.New(rand.NewSource(53))
	fillSynthetic(buf, fill, rng)
	kv := replay.NewKVBuffer(spec)
	kv.ReorganizeFrom(buf)
	batches := newBatches(spec, scale.Batch)
	rows := make([]float64, scale.Batch*kv.RowStride())
	sampler := replay.NewUniformSampler(buf)

	indexSets := make([][]int, traceIters*agents)
	for i := range indexSets {
		var s replay.Sample
		sampler.SampleInto(&s, scale.Batch, rng)
		indexSets[i] = s.Indices
	}

	hBase := simcache.NewHierarchy(simcache.Ryzen3975WX())
	buf.SetTracer(hBase)
	for _, idx := range indexSets {
		buf.GatherAll(idx, batches)
	}
	buf.SetTracer(nil)

	hKV := simcache.NewHierarchy(simcache.Ryzen3975WX())
	kv.SetTracer(hKV)
	for _, idx := range indexSets {
		kv.GatherRows(idx, rows)
	}
	kv.SetTracer(nil)
	return hBase.Stats(), hKV.Stats()
}
