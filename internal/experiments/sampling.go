package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"marlperf/internal/core"
	"marlperf/internal/profiler"
	"marlperf/internal/replay"
	"marlperf/internal/simcache"
)

// Paper reference reductions (%), read from the published bars (±1-2pp).
var fig8Paper = map[envKind]map[string]map[int]float64{
	envPredatorPrey: {
		"n16r64": {3: 35.9, 6: 32.9, 12: 33.8, 24: 35.0},
		"n64r16": {3: 36.6, 6: 34.9, 12: 37.5, 24: 37.2},
	},
	envCoopNav: {
		"n16r64": {3: 28.4, 6: 32.8, 12: 31.0, 24: 33.4},
		"n64r16": {3: 33.2, 6: 29.0, 12: 33.8, 24: 35.0},
	},
}

var fig9Paper = map[envKind]map[string]map[int]float64{
	envPredatorPrey: {
		"n16r64": {3: 7.8, 6: 6.1, 12: 7.6, 24: 19.1},
		"n64r16": {3: 8.2, 6: 6.5, 12: 8.6, 24: 20.5},
	},
	envCoopNav: {
		"n16r64": {3: 8.6, 6: 11.1, 12: 10.9, 24: 14.1},
		"n64r16": {3: 9.05, 6: 12.1, 12: 11.9, 24: 16.6},
	},
}

// §VI-A cache-miss reductions for MADDPG PP with (n=16, ref=64).
var cacheMissPaper = map[int]float64{3: 16.1, 6: 21.8, 12: 25.0, 24: 29.0}

func init() {
	register(&Runner{
		ID:          "fig8",
		Description: "Figure 8: mini-batch sampling-phase time reduction from cache-locality-aware sampling",
		Run:         runFig8,
	})
	register(&Runner{
		ID:          "fig9",
		Description: "Figure 9: end-to-end training-time reduction from cache-locality-aware sampling",
		Run:         runFig9,
	})
	register(&Runner{
		ID:          "fig12",
		Description: "Figure 12: modeled savings on an i7-9700K CPU-only platform",
		Run:         func(s Scale) *Result { return runCrossPlatform("fig12", simcache.I79700K(), s) },
	})
	register(&Runner{
		ID:          "fig13",
		Description: "Figure 13: modeled savings on an i7-9700K + GTX 1070 CPU-GPU platform",
		Run:         func(s Scale) *Result { return runCrossPlatform("fig13", simcache.GTX1070(), s) },
	})
}

// samplerVariant pairs a label with a sampler constructor over a buffer.
type samplerVariant struct {
	label string
	mk    func(buf *replay.Buffer) replay.Sampler
}

func baselineAndLocalityVariants() []samplerVariant {
	return []samplerVariant{
		{"uniform", func(b *replay.Buffer) replay.Sampler { return replay.NewUniformSampler(b) }},
		{"n16r64", func(b *replay.Buffer) replay.Sampler { return replay.NewLocalitySampler(b, 16, 64) }},
		{"n64r16", func(b *replay.Buffer) replay.Sampler { return replay.NewLocalitySampler(b, 64, 16) }},
	}
}

// measureSamplingWall times iters full sampling phases (N agent trainers
// each drawing indices and gathering every agent's batch) and returns the
// total wall time.
func measureSamplingWall(buf *replay.Buffer, sampler replay.Sampler, batches []*replay.AgentBatch, agents, batch, iters int, rng *rand.Rand) time.Duration {
	var s replay.Sample
	start := time.Now()
	for it := 0; it < iters; it++ {
		for trainer := 0; trainer < agents; trainer++ {
			sampler.SampleInto(&s, batch, rng)
			buf.GatherAll(s.Indices, batches)
		}
	}
	return time.Since(start)
}

func runFig8(scale Scale) *Result {
	timeTab := &Table{
		Title:   "Figure 8 reproduction: sampling-phase time reduction vs baseline random sampling",
		Headers: []string{"env", "agents", "baseline", "n16r64", "reduction", "paper", "n64r16", "reduction", "paper"},
		Notes: []string{
			fmt.Sprintf("buffer fill %d, batch %d, %d sampling phases per point", scale.BufferFill, scale.Batch, scale.SamplingIters),
			"paper shape: 28-38%% sampling-phase reduction at every configuration; the longer-run (64,16) point reduces slightly more",
		},
	}
	missTab := &Table{
		Title:   "Section VI-A reproduction: simulated cache-miss reduction (n=16, ref=64 vs baseline)",
		Headers: []string{"env", "agents", "baseline LLC misses", "locality LLC misses", "reduction", "paper (PP)"},
		Notes:   []string{"paper reports 16.1%/21.8%/25%/29% fewer cache misses for 3/6/12/24 agents (predator-prey)"},
	}
	for _, kind := range []envKind{envPredatorPrey, envCoopNav} {
		for _, n := range scale.AgentCounts {
			spec := newSpec(kind, n, scale.BufferFill)
			buf := replay.NewBuffer(spec)
			rng := rand.New(rand.NewSource(21))
			fillSynthetic(buf, scale.BufferFill, rng)
			batches := newBatches(spec, scale.Batch)

			times := map[string]time.Duration{}
			for _, v := range baselineAndLocalityVariants() {
				s := v.mk(buf)
				// Warm one pass so allocations settle, then measure.
				measureSamplingWall(buf, s, batches, n, scale.Batch, 1, rng)
				times[v.label] = measureSamplingWall(buf, s, batches, n, scale.Batch, scale.SamplingIters, rng)
			}
			base := times["uniform"].Seconds()
			timeTab.Rows = append(timeTab.Rows, []string{
				kind.short(), fmt.Sprint(n),
				times["uniform"].Round(time.Microsecond).String(),
				times["n16r64"].Round(time.Microsecond).String(),
				pct(reduction(base, times["n16r64"].Seconds())),
				pct(fig8Paper[kind]["n16r64"][n]),
				times["n64r16"].Round(time.Microsecond).String(),
				pct(reduction(base, times["n64r16"].Seconds())),
				pct(fig8Paper[kind]["n64r16"][n]),
			})

			// Simulated cache-miss comparison for the same traffic.
			baseStats := traceSamplerStats(buf, replay.NewUniformSampler(buf), batches, n, scale.Batch)
			locStats := traceSamplerStats(buf, replay.NewLocalitySampler(buf, 16, 64), batches, n, scale.Batch)
			paperRef := "-"
			if kind == envPredatorPrey {
				paperRef = pct(cacheMissPaper[n])
			}
			missTab.Rows = append(missTab.Rows, []string{
				kind.short(), fmt.Sprint(n),
				fmt.Sprint(baseStats.L3Misses),
				fmt.Sprint(locStats.L3Misses),
				pct(reduction(float64(baseStats.L3Misses), float64(locStats.L3Misses))),
				paperRef,
			})
		}
	}
	return &Result{ID: "fig8", Tables: []*Table{timeTab, missTab}}
}

// traceSamplerStats replays traceIters sampling phases through the Ryzen
// hierarchy for the given sampler and returns the counters.
func traceSamplerStats(buf *replay.Buffer, sampler replay.Sampler, batches []*replay.AgentBatch, agents, batch int) simcache.Stats {
	rng := rand.New(rand.NewSource(31))
	return traceDraws(buf, batches, simcache.Ryzen3975WX(), traceIters*agents, sampler, batch, rng)
}

func runFig9(scale Scale) *Result {
	tab := &Table{
		Title:   "Figure 9 reproduction: end-to-end training-time reduction vs baseline MADDPG",
		Headers: []string{"env", "agents", "baseline", "n16r64", "reduction", "paper", "n64r16", "reduction", "paper"},
		Notes: []string{
			fmt.Sprintf("%d training episodes per run, batch %d", scale.E2EEpisodes, scale.CharBatch),
			"paper shape: reductions grow from ~8%% (3 agents) to ~20%% (24 agents) as sampling's share of total time grows",
		},
	}
	for _, kind := range []envKind{envPredatorPrey, envCoopNav} {
		for _, n := range scale.AgentCounts {
			run := func(sampler core.SamplerKind, neighbors, refs int) time.Duration {
				cfg := charConfig(core.MADDPG, scale, newSpec(kind, n, 1))
				cfg.Sampler = sampler
				cfg.Neighbors = neighbors
				cfg.Refs = refs
				tr, err := core.NewTrainer(cfg, newEnv(kind, n))
				if err != nil {
					panic(err)
				}
				defer tr.Close()
				// Steady-state buffer occupancy so the sampling phase works
				// against a realistic footprint.
				fillSynthetic(tr.Buffer(), cfg.BufferCapacity, rand.New(rand.NewSource(cfg.Seed)))
				start := time.Now()
				tr.RunEpisodes(scale.E2EEpisodes, nil)
				return time.Since(start)
			}
			base := run(core.SamplerUniform, 0, 0)
			l1664 := run(core.SamplerLocality, 16, 64)
			l6416 := run(core.SamplerLocality, 64, 16)
			tab.Rows = append(tab.Rows, []string{
				kind.short(), fmt.Sprint(n),
				base.Round(time.Millisecond).String(),
				l1664.Round(time.Millisecond).String(),
				pct(reduction(base.Seconds(), l1664.Seconds())),
				pct(fig9Paper[kind]["n16r64"][n]),
				l6416.Round(time.Millisecond).String(),
				pct(reduction(base.Seconds(), l6416.Seconds())),
				pct(fig9Paper[kind]["n64r16"][n]),
			})
		}
	}
	return &Result{ID: "fig9", Tables: []*Table{tab}}
}

// Cross-validation paper references (approximate bar readings).
var fig12Paper = map[string]map[int]float64{
	"mbs": {3: 37.5, 6: 34.9, 12: 38.4},
	"tt":  {3: 9.9, 6: 12.1, 12: 18.5},
}
var fig13Paper = map[string]map[int]float64{
	"mbs": {3: 31.7, 6: 32.8, 12: 39.2},
	"tt":  {3: 3.2, 6: 6.5, 12: 13.3},
}

// runCrossPlatform models Figures 12-13: sampling traffic for MADDPG
// predator-prey is traced through the platform's cache hierarchy, modeled
// sampling (MBS) time comes from the latency model, and total time (TT)
// adds the non-sampling share measured on this host plus the platform's
// device-transfer term (zero for CPU-only).
func runCrossPlatform(id string, platform simcache.Platform, scale Scale) *Result {
	paper := fig12Paper
	if id == "fig13" {
		paper = fig13Paper
	}
	tab := &Table{
		Title:   fmt.Sprintf("%s reproduction: modeled savings on %s (MADDPG predator-prey)", id, platform.Name),
		Headers: []string{"agents", "MBS reduction (n16r64)", "paper MBS", "TT reduction (n16r64)", "paper TT"},
		Notes: []string{
			"modeled experiment: miss counts from the trace simulator, times from the platform latency model (see DESIGN.md)",
			"paper shape: CPU-only total-time savings exceed the GPU-attached platform's, where PCIe transfer dilutes the benefit",
		},
	}
	kind := envPredatorPrey
	for _, n := range scale.AgentCounts {
		spec := newSpec(kind, n, scale.BufferFill)
		buf := replay.NewBuffer(spec)
		rng := rand.New(rand.NewSource(41))
		fillSynthetic(buf, scale.BufferFill, rng)
		batches := newBatches(spec, scale.Batch)

		mbs := map[string]float64{}
		for _, v := range []samplerVariant{
			{"uniform", func(b *replay.Buffer) replay.Sampler { return replay.NewUniformSampler(b) }},
			{"n16r64", func(b *replay.Buffer) replay.Sampler { return replay.NewLocalitySampler(b, 16, 64) }},
		} {
			r2 := rand.New(rand.NewSource(42))
			st := traceDraws(buf, batches, platform, traceIters*n, v.mk(buf), scale.Batch, r2)
			mbs[v.label] = platform.ModeledTimeNS(st, 0)
		}

		// Non-sampling share of total time under the CPU-GPU platform
		// model (network phases on device), matching the paper's setting.
		c := runCharacterization(core.MADDPG, kind, n, scale)
		samplingShare := modeledProfile(c.prof, n).Percent(profiler.PhaseSampling) / 100
		if samplingShare <= 0.01 {
			samplingShare = 0.01
		}
		other := mbs["uniform"] * (1 - samplingShare) / samplingShare
		// Per-update device transfer: every agent trainer ships its joint
		// mini-batch to the device; charged equally to both configurations.
		batchBytes := 0
		for a := 0; a < spec.NumAgents; a++ {
			batchBytes += scale.Batch * (2*spec.ObsDims[a] + spec.ActDim + 2) * 8
		}
		transfer := 0.0
		if platform.TransferPerByte > 0 || platform.TransferFixed > 0 {
			transfer = float64(traceIters*n) * (platform.TransferFixed + platform.TransferPerByte*float64(batchBytes))
		}
		ttBase := mbs["uniform"] + other + transfer
		ttOpt := mbs["n16r64"] + other + transfer

		paperMBS, okM := paper["mbs"][n]
		paperTT, okT := paper["tt"][n]
		mbsStr, ttStr := "-", "-"
		if okM {
			mbsStr = pct(paperMBS)
		}
		if okT {
			ttStr = pct(paperTT)
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(n),
			pct(reduction(mbs["uniform"], mbs["n16r64"])),
			mbsStr,
			pct(reduction(ttBase, ttOpt)),
			ttStr,
		})
	}
	return &Result{ID: id, Tables: []*Table{tab}}
}
