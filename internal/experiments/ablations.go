package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"marlperf/internal/core"
	"marlperf/internal/replay"
	"marlperf/internal/simcache"
)

func init() {
	register(&Runner{
		ID:          "ablation-neighbors",
		Description: "Ablation: neighbor-run length vs reference-point count at fixed batch coverage",
		Run:         runAblationNeighbors,
	})
	register(&Runner{
		ID:          "ablation-ip",
		Description: "Ablation: IP neighbor-predictor thresholds vs fixed neighbor counts",
		Run:         runAblationIP,
	})
	register(&Runner{
		ID:          "ablation-beta",
		Description: "Ablation: Lemma-1 importance-sampling compensation β on learning outcome",
		Run:         runAblationBeta,
	})
	register(&Runner{
		ID:          "ablation-rankper",
		Description: "Ablation: proportional vs rank-based prioritized replay",
		Run:         runAblationRankPER,
	})
	register(&Runner{
		ID:          "ablation-reuse",
		Description: "Ablation: AccMER-style transition reuse windows vs fresh sampling",
		Run:         runAblationReuse,
	})
}

// runAblationReuse measures the sampling-cost savings of reusing a drawn
// mini-batch for W updates (the related-work AccMER strategy) against fresh
// uniform and locality-aware sampling.
func runAblationReuse(scale Scale) *Result {
	tab := &Table{
		Title:   "Ablation: transition-reuse window (predator-prey, largest agent count)",
		Headers: []string{"strategy", "sampling time", "reduction vs fresh", "distinct batches"},
		Notes: []string{
			"reuse(w) redraws indices every w updates (AccMER-style); gathers still run every update",
			"fresh locality-aware sampling is the paper's alternative: cheap every update, no staleness",
		},
	}
	n := scale.AgentCounts[len(scale.AgentCounts)-1]
	spec := newSpec(envPredatorPrey, n, cappedFill(newSpec(envPredatorPrey, n, 1), scale.BufferFill))
	buf := replay.NewBuffer(spec)
	rng := rand.New(rand.NewSource(64))
	fillSynthetic(buf, spec.Capacity, rng)
	batches := newBatches(spec, scale.Batch)

	variants := []struct {
		label string
		s     replay.Sampler
	}{
		{"fresh uniform", replay.NewUniformSampler(buf)},
		{"reuse w=2", replay.NewReuseSampler(replay.NewUniformSampler(buf), 2)},
		{"reuse w=4", replay.NewReuseSampler(replay.NewUniformSampler(buf), 4)},
		{"fresh locality n16r64", replay.NewLocalitySampler(buf, 16, 64)},
	}
	var base float64
	for i, v := range variants {
		seen := map[int]bool{}
		var sample replay.Sample
		start := time.Now()
		for it := 0; it < scale.SamplingIters; it++ {
			for trainer := 0; trainer < n; trainer++ {
				v.s.SampleInto(&sample, scale.Batch, rng)
				buf.GatherAll(sample.Indices, batches)
				seen[sample.Indices[0]*1000003+sample.Indices[len(sample.Indices)-1]] = true
			}
		}
		wall := time.Since(start).Seconds()
		if i == 0 {
			base = wall
		}
		tab.Rows = append(tab.Rows, []string{
			v.label,
			fmt.Sprintf("%.3fms", wall*1000),
			pct(reduction(base, wall)),
			fmt.Sprint(len(seen)),
		})
	}
	return &Result{ID: "ablation-reuse", Tables: []*Table{tab}}
}

// runAblationRankPER compares the two PER variants of Schaul et al.:
// proportional (sum tree) vs rank-based (sorted order), on sampling cost
// and concentration under an outlier TD error.
func runAblationRankPER(scale Scale) *Result {
	tab := &Table{
		Title:   "Ablation: proportional vs rank-based prioritized replay (predator-prey)",
		Headers: []string{"variant", "sampling time", "outlier share", "max weight spread"},
		Notes: []string{
			"outlier share = fraction of a batch drawn from one transition whose TD error is 1000x the rest",
			"rank-based bounds concentration (1/rank mass) where proportional follows magnitudes",
		},
	}
	n := scale.AgentCounts[0]
	for _, variant := range []string{"proportional", "rank-based"} {
		spec := newSpec(envPredatorPrey, n, cappedFill(newSpec(envPredatorPrey, n, 1), scale.BufferFill))
		buf := replay.NewBuffer(spec)
		var s replay.PrioritySampler
		if variant == "proportional" {
			s = replay.NewPERSampler(buf)
		} else {
			s = replay.NewRankPERSampler(buf)
		}
		rng := rand.New(rand.NewSource(63))
		fillSynthetic(buf, spec.Capacity, rng)

		// One outlier TD error among uniform small ones.
		idx := make([]int, buf.Len())
		td := make([]float64, buf.Len())
		for i := range idx {
			idx[i] = i
			td[i] = 0.01
		}
		td[42] = 10
		s.UpdatePriorities(idx, td)

		batches := newBatches(spec, scale.Batch)
		start := time.Now()
		outlier := 0
		totalDrawn := 0
		var minW, maxW float64 = 1, 0
		var sample replay.Sample
		for it := 0; it < scale.SamplingIters; it++ {
			s.SampleInto(&sample, scale.Batch, rng)
			buf.GatherAll(sample.Indices, batches)
			for i, drawn := range sample.Indices {
				if drawn == 42 {
					outlier++
				}
				w := sample.Weights[i]
				if w < minW {
					minW = w
				}
				if w > maxW {
					maxW = w
				}
			}
			totalDrawn += len(sample.Indices)
		}
		wall := time.Since(start)
		tab.Rows = append(tab.Rows, []string{
			variant,
			wall.Round(time.Microsecond).String(),
			pct(100 * float64(outlier) / float64(totalDrawn)),
			fmt.Sprintf("%.3f-%.3f", minW, maxW),
		})
	}
	return &Result{ID: "ablation-rankper", Tables: []*Table{tab}}
}

// runAblationNeighbors sweeps the (neighbors, refs) trade-off the paper's
// two operating points sit on: longer runs give the prefetcher more to
// stream but reduce randomness.
func runAblationNeighbors(scale Scale) *Result {
	tab := &Table{
		Title:   "Ablation: neighbor sweep (predator-prey, largest agent count)",
		Headers: []string{"neighbors", "refs", "sampling time", "reduction vs uniform", "LLC misses", "dTLB misses", "distinct refs/batch"},
		Notes: []string{
			"batch coverage fixed at neighbors x refs = batch; the paper's operating points are n=16/ref=64 and n=64/ref=16",
		},
	}
	n := scale.AgentCounts[len(scale.AgentCounts)-1]
	spec := newSpec(envPredatorPrey, n, scale.BufferFill)
	buf := replay.NewBuffer(spec)
	rng := rand.New(rand.NewSource(61))
	fillSynthetic(buf, scale.BufferFill, rng)
	batches := newBatches(spec, scale.Batch)

	baseTime := measureSamplingWall(buf, replay.NewUniformSampler(buf), batches, n, scale.Batch, scale.SamplingIters, rng)
	baseRow := []string{"1 (uniform)", fmt.Sprint(scale.Batch), baseTime.Round(time.Microsecond).String(), "0.0%"}
	baseStats := traceSamplerStats(buf, replay.NewUniformSampler(buf), batches, n, scale.Batch)
	baseRow = append(baseRow, fmt.Sprint(baseStats.L3Misses), fmt.Sprint(baseStats.TLBMisses), fmt.Sprint(scale.Batch))
	tab.Rows = append(tab.Rows, baseRow)

	for _, neigh := range []int{4, 16, 64, 256} {
		if neigh > scale.Batch {
			continue
		}
		refs := scale.Batch / neigh
		s := replay.NewLocalitySampler(buf, neigh, refs)
		t := measureSamplingWall(buf, s, batches, n, scale.Batch, scale.SamplingIters, rng)
		stats := traceSamplerStats(buf, s, batches, n, scale.Batch)
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(neigh), fmt.Sprint(refs),
			t.Round(time.Microsecond).String(),
			pct(reduction(baseTime.Seconds(), t.Seconds())),
			fmt.Sprint(stats.L3Misses),
			fmt.Sprint(stats.TLBMisses),
			fmt.Sprint(refs),
		})
	}
	return &Result{ID: "ablation-neighbors", Tables: []*Table{tab}}
}

// runAblationIP compares the threshold predictor against fixed neighbor
// counts sharing the same PER priorities.
func runAblationIP(scale Scale) *Result {
	tab := &Table{
		Title:   "Ablation: IP neighbor predictor vs fixed neighbor counts (predator-prey)",
		Headers: []string{"predictor", "sampling time", "LLC misses", "mean run length"},
		Notes: []string{
			"the adaptive predictor (1/2/4 by normalized priority) sits between fixed-1 (max randomness) and fixed-4 (max locality)",
		},
	}
	n := scale.AgentCounts[len(scale.AgentCounts)-1]
	spec := newSpec(envPredatorPrey, n, scale.BufferFill)

	predictors := []struct {
		label string
		p     replay.NeighborPredictor
	}{
		{"adaptive 1/2/4 (paper)", replay.DefaultNeighborPredictor()},
		{"fixed 1", replay.NeighborPredictor{Neighbors: []int{1}}},
		{"fixed 4", replay.NeighborPredictor{Neighbors: []int{4}}},
	}
	for _, pr := range predictors {
		buf := replay.NewBuffer(spec)
		rng := rand.New(rand.NewSource(62))
		s := replay.NewIPLocalitySampler(buf, 1)
		s.Predictor = pr.p
		fillSynthetic(buf, scale.BufferFill, rng)
		// Shake priorities so the predictor sees a spread of weights.
		idx := make([]int, 0, scale.BufferFill/7)
		td := make([]float64, 0, scale.BufferFill/7)
		for i := 0; i < scale.BufferFill; i += 7 {
			idx = append(idx, i)
			td = append(td, rng.Float64()*2)
		}
		s.UpdatePriorities(idx, td)

		batches := newBatches(spec, scale.Batch)
		start := time.Now()
		var totalIdx, totalRefs int
		var sample replay.Sample
		for it := 0; it < scale.SamplingIters; it++ {
			for trainer := 0; trainer < n; trainer++ {
				s.SampleInto(&sample, scale.Batch, rng)
				buf.GatherAll(sample.Indices, batches)
				totalIdx += len(sample.Indices)
				totalRefs += len(sample.Refs)
			}
		}
		wall := time.Since(start)

		st := traceDraws(buf, batches, simcache.Ryzen3975WX(), n, s, scale.Batch, rng)

		meanRun := float64(totalIdx) / float64(totalRefs)
		tab.Rows = append(tab.Rows, []string{
			pr.label,
			wall.Round(time.Microsecond).String(),
			fmt.Sprint(st.L3Misses),
			f2(meanRun),
		})
	}
	return &Result{ID: "ablation-ip", Tables: []*Table{tab}}
}

// runAblationBeta trains the IP sampler with β ∈ {0, 0.5, 1} to show the
// Lemma-1 compensation's effect on learning outcome.
func runAblationBeta(scale Scale) *Result {
	tab := &Table{
		Title:   "Ablation: Lemma-1 compensation β (cooperative navigation)",
		Headers: []string{"beta", "final reward", "mean of last half"},
		Notes: []string{
			"β=1 fully compensates the locality-induced distribution shift; β=0 disables the correction",
		},
	}
	agents := scale.RewardAgents[0]
	for _, beta := range []float64{0, 0.5, 1} {
		series, _ := rewardCurve(envCoopNav, agents, scale, rewardVariant{
			label: fmt.Sprintf("beta=%.1f", beta),
			cfg: func(c core.Config) core.Config {
				c.Sampler = core.SamplerIPLocality
				c.ISBeta = beta
				return c
			},
		}, 7)
		if len(series) == 0 {
			continue
		}
		var lastHalf float64
		half := series[len(series)/2:]
		for _, v := range half {
			lastHalf += v
		}
		lastHalf /= float64(len(half))
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%.1f", beta),
			f2(series[len(series)-1]),
			f2(lastHalf),
		})
	}
	return &Result{ID: "ablation-beta", Tables: []*Table{tab}}
}
