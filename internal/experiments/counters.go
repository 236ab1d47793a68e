package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"marlperf/internal/replay"
	"marlperf/internal/simcache"
)

// traceIters is how many update-equivalents of sampling traffic are traced
// per configuration; traces are deterministic so a few suffice.
const traceIters = 3

func init() {
	register(&Runner{
		ID:          "fig4",
		Description: "Figure 4: simulated hardware-counter growth of update-all-trainers sampling as agents scale",
		Run:         runFig4,
	})
}

// fig4Paper holds the paper's average growth rates per agent doubling
// (approximate, read from the published bars).
var fig4Paper = map[string][3]float64{
	"instructions": {3.0, 3.2, 3.5},
	"cache-misses": {2.5, 3.3, 4.3},
	"dtlb-misses":  {3.0, 3.4, 4.0},
}

// traceKey names one fig4 configuration.
type traceKey struct {
	kind                envKind
	agents, fill, batch int
}

var (
	traceMu    sync.Mutex
	traceCache = map[traceKey]simcache.Stats{}
)

// sampleTraceStats replays traceIters updates of baseline uniform sampling
// traffic (N agent trainers, each gathering all N agents' batches) through
// the Ryzen hierarchy and returns the counter deltas. Results are memoized
// per process, so fig4 and the run blocks of the JSON rendering trace each
// configuration once and report the same counts.
func sampleTraceStats(kind envKind, agents, fill, batch int) simcache.Stats {
	key := traceKey{kind, agents, fill, batch}
	traceMu.Lock()
	if st, ok := traceCache[key]; ok {
		traceMu.Unlock()
		return st
	}
	traceMu.Unlock()

	spec := newSpec(kind, agents, fill)
	buf := replay.NewBuffer(spec)
	rng := rand.New(rand.NewSource(11))
	fillSynthetic(buf, fill, rng)
	sampler := replay.NewUniformSampler(buf)
	st := traceDraws(buf, newBatches(spec, batch), simcache.Ryzen3975WX(), traceIters*agents, sampler, batch, rng)

	traceMu.Lock()
	traceCache[key] = st
	traceMu.Unlock()
	return st
}

// traceDraws replays draws sampling draws through a fresh hierarchy of the
// platform: each draw's indices are gathered for every agent while the
// hierarchy traces buf. The caller owns the sampler and rng, so each
// experiment keeps its own index stream; the draws reuse one Sample, as the
// trainer's do.
func traceDraws(buf *replay.Buffer, batches []*replay.AgentBatch, platform simcache.Platform, draws int, sampler replay.Sampler, batch int, rng *rand.Rand) simcache.Stats {
	h := simcache.NewHierarchy(platform)
	buf.SetTracer(h)
	defer buf.SetTracer(nil)
	var s replay.Sample
	for i := 0; i < draws; i++ {
		sampler.SampleInto(&s, batch, rng)
		buf.GatherAll(s.Indices, batches)
	}
	return h.Stats()
}

func runFig4(scale Scale) *Result {
	growth := &Table{
		Title:   "Figure 4 reproduction: growth rate of sampling-phase hardware events as agents double",
		Headers: []string{"env", "transition", "instructions (Nx)", "cache misses (Nx)", "dTLB misses (Nx)", "L1 misses (Nx)"},
		Notes: []string{
			"counters come from the trace-driven cache simulator (substitute for perf; see DESIGN.md)",
			"instructions proxy = traced logical accesses; cache misses = LLC misses",
			fmt.Sprintf("paper averages per doubling: instructions %.1f-%.1fx, cache misses %.1f-%.1fx, dTLB %.1f-%.1fx",
				fig4Paper["instructions"][0], fig4Paper["instructions"][2],
				fig4Paper["cache-misses"][0], fig4Paper["cache-misses"][2],
				fig4Paper["dtlb-misses"][0], fig4Paper["dtlb-misses"][2]),
			"paper shape: super-linear growth (≥2x per agent doubling) in every event",
		},
	}
	raw := &Table{
		Title:   "Figure 4 raw counters (per configuration)",
		Headers: []string{"env", "agents", "accesses", "L1 misses", "LLC misses", "dTLB misses"},
	}
	for _, kind := range []envKind{envPredatorPrey, envCoopNav} {
		stats := make(map[int]simcache.Stats, len(scale.AgentCounts))
		for _, n := range scale.AgentCounts {
			stats[n] = sampleTraceStats(kind, n, scale.BufferFill, scale.Batch)
			s := stats[n]
			raw.Rows = append(raw.Rows, []string{
				kind.short(), fmt.Sprint(n),
				fmt.Sprint(s.Accesses), fmt.Sprint(s.L1Misses),
				fmt.Sprint(s.L3Misses), fmt.Sprint(s.TLBMisses),
			})
		}
		for i := 1; i < len(scale.AgentCounts); i++ {
			lo, hi := scale.AgentCounts[i-1], scale.AgentCounts[i]
			a, b := stats[lo], stats[hi]
			growth.Rows = append(growth.Rows, []string{
				kind.short(),
				fmt.Sprintf("%d to %d agents", lo, hi),
				f2(ratio(b.Accesses, a.Accesses)),
				f2(ratio(b.L3Misses, a.L3Misses)),
				f2(ratio(b.TLBMisses, a.TLBMisses)),
				f2(ratio(b.L1Misses, a.L1Misses)),
			})
		}
	}
	return &Result{ID: "fig4", Tables: []*Table{growth, raw}}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
