package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"marlperf/internal/core"
	"marlperf/internal/profiler"
)

// Paper reference values used for side-by-side shape comparison.

// tableIPaperSeconds holds Table I end-to-end training times (seconds,
// 60k episodes) indexed by [env][algo][agent-count].
var tableIPaperSeconds = map[envKind]map[core.Algorithm]map[int]float64{
	envPredatorPrey: {
		core.MADDPG: {3: 3365.99, 6: 8504.99, 12: 23406.16, 24: 82768.15},
		core.MATD3:  {3: 3838.97, 6: 9039.11, 12: 24678.43, 24: 80123.24},
	},
	envCoopNav: {
		core.MADDPG: {3: 2403.64, 6: 5888.64, 12: 15722.43, 24: 52421.81},
		core.MATD3:  {3: 2785.53, 6: 6369.42, 12: 17081.71, 24: 55371.91},
	},
}

// fig2PaperUpdatePct holds Figure 2's update-all-trainers share (%), read
// from the published bars (approximate to the labeled values).
var fig2PaperUpdatePct = map[envKind]map[core.Algorithm]map[int]float64{
	envPredatorPrey: {
		core.MADDPG: {3: 36, 6: 50, 12: 62, 24: 76},
		core.MATD3:  {3: 36, 6: 50, 12: 62, 24: 73},
	},
	envCoopNav: {
		core.MADDPG: {3: 27, 6: 36, 12: 50, 24: 68},
		core.MATD3:  {3: 26, 6: 36, 12: 53, 24: 62},
	},
}

// fig3PaperSamplingPct holds Figure 3's mini-batch-sampling share of the
// update-all-trainers stage (%).
var fig3PaperSamplingPct = map[envKind]map[core.Algorithm]map[int]float64{
	envPredatorPrey: {
		core.MADDPG: {3: 59, 6: 64, 12: 65, 24: 65},
		core.MATD3:  {3: 56, 6: 60, 12: 61, 24: 61},
	},
	envCoopNav: {
		core.MADDPG: {3: 57, 6: 60, 12: 61, 24: 61},
		core.MATD3:  {3: 55, 6: 58, 12: 60, 24: 62},
	},
}

// fig6PaperUpdatePct holds Figure 6's update share for MADDPG Predator-Prey
// up to 48 agents, plus the paper's total seconds.
var fig6PaperUpdatePct = map[int]float64{3: 34, 6: 46, 12: 61, 24: 76, 48: 87}
var fig6PaperTotalSec = map[int]float64{3: 3366, 6: 8505, 12: 23406, 24: 82768, 48: 302400}

// charOutcome is one memoized characterization run.
type charOutcome struct {
	algo     core.Algorithm
	kind     envKind
	agents   int
	episodes int
	wall     time.Duration
	prof     *profiler.Profile
}

var (
	charMu    sync.Mutex
	charCache = map[string]*charOutcome{}
)

// runCharacterization trains algo on (kind, agents) for the scale's episode
// budget with the baseline uniform sampler and returns phase timings.
// Results are memoized per process so Table I and Figures 2/3/6 share runs.
func runCharacterization(algo core.Algorithm, kind envKind, agents int, scale Scale) *charOutcome {
	key := fmt.Sprintf("%v|%v|%d|%s", algo, kind, agents, scale.Name)
	charMu.Lock()
	if c, ok := charCache[key]; ok {
		charMu.Unlock()
		return c
	}
	charMu.Unlock()

	spec := newSpec(kind, agents, 1)
	cfg := charConfig(algo, scale, spec)
	tr, err := core.NewTrainer(cfg, newEnv(kind, agents))
	if err != nil {
		panic(err)
	}
	// Pre-fill the buffer to steady-state occupancy so the measured
	// sampling phase gathers from a realistically out-of-cache footprint
	// (the paper's replay holds up to 1M transitions) and updates run from
	// the first measured episode.
	fillSynthetic(tr.Buffer(), cfg.BufferCapacity, rand.New(rand.NewSource(cfg.Seed)))
	start := time.Now()
	tr.RunEpisodes(scale.CharEpisodes, nil)
	tr.Close()
	out := &charOutcome{
		algo:     algo,
		kind:     kind,
		agents:   agents,
		episodes: scale.CharEpisodes,
		wall:     time.Since(start),
		prof:     tr.Profile(),
	}
	charMu.Lock()
	charCache[key] = out
	charMu.Unlock()
	return out
}

// otherPct returns the non-action-selection, non-update share.
func otherPct(p *profiler.Profile) float64 {
	total := p.Total()
	if total == 0 {
		return 0
	}
	other := p.Duration(profiler.PhaseEnvStep) + p.Duration(profiler.PhaseReplayAdd)
	return 100 * float64(other) / float64(total)
}

func updatePct(p *profiler.Profile) float64 {
	total := p.Total()
	if total == 0 {
		return 0
	}
	return 100 * float64(p.UpdateTrainers()) / float64(total)
}

func init() {
	register(&Runner{
		ID:          "table1",
		Description: "Table I: end-to-end training times for MADDPG and MATD3, PP and CN, 3-24 agents",
		Run:         runTable1,
	})
	register(&Runner{
		ID:          "fig2",
		Description: "Figure 2: end-to-end training-time percentage breakdown per phase",
		Run:         runFig2,
	})
	register(&Runner{
		ID:          "fig3",
		Description: "Figure 3: training-time breakdown within update-all-trainers",
		Run:         runFig3,
	})
	register(&Runner{
		ID:          "fig6",
		Description: "Figure 6: MADDPG predator-prey scalability up to 48 agents",
		Run:         runFig6,
	})
}

func runTable1(scale Scale) *Result {
	tab := &Table{
		Title:   "Table I reproduction: end-to-end training time (extrapolated to 60k episodes)",
		Headers: []string{"env", "algo", "agents", "measured", "extrap 60k (s)", "gpu-model 60k (s)", "paper (s)", "growth vs base", "paper growth"},
		Notes: []string{
			fmt.Sprintf("scale=%s: %d episodes measured per configuration, batch %d; paper trains 60k episodes at batch 1024 on an RTX 3090", scale.Name, scale.CharEpisodes, scale.CharBatch),
			"gpu-model applies the documented CPU-GPU platform model to the network phases (see EXPERIMENTS.md)",
			"compare growth columns: the paper's shape is super-linear in agent count",
		},
	}
	for _, kind := range []envKind{envPredatorPrey, envCoopNav} {
		for _, algo := range []core.Algorithm{core.MADDPG, core.MATD3} {
			var base float64
			for _, n := range scale.AgentCounts {
				c := runCharacterization(algo, kind, n, scale)
				perEp := c.wall.Seconds() / float64(c.episodes)
				extrap := perEp * 60000
				modeled := modeledProfile(c.prof, n).Total().Seconds() / float64(c.episodes) * 60000
				if n == scale.AgentCounts[0] {
					base = modeled
				}
				paper := tableIPaperSeconds[kind][algo][n]
				paperBase := tableIPaperSeconds[kind][algo][scale.AgentCounts[0]]
				tab.Rows = append(tab.Rows, []string{
					kind.short(), algo.String(), fmt.Sprint(n),
					c.wall.Round(time.Millisecond).String(),
					fmt.Sprintf("%.0f", extrap),
					fmt.Sprintf("%.0f", modeled),
					fmt.Sprintf("%.0f", paper),
					f2(modeled / base),
					f2(paper / paperBase),
				})
				tab.Runs = append(tab.Runs, c)
			}
		}
	}
	return &Result{ID: "table1", Tables: []*Table{tab}}
}

func runFig2(scale Scale) *Result {
	tab := &Table{
		Title:   "Figure 2 reproduction: end-to-end training-time percentage breakdown",
		Headers: []string{"env", "algo", "agents", "action-sel %", "update-all-trainers %", "other %", "paper update %", "raw update %"},
		Notes: []string{
			"percentage columns use the CPU-GPU platform model (network phases on device); 'raw update %' is the unmodeled all-CPU share",
			"paper shape: the update-all-trainers share grows with agent count and dominates by 24 agents",
			"'other' = environment step + replay add",
		},
	}
	for _, kind := range []envKind{envPredatorPrey, envCoopNav} {
		for _, algo := range []core.Algorithm{core.MADDPG, core.MATD3} {
			for _, n := range scale.AgentCounts {
				c := runCharacterization(algo, kind, n, scale)
				p := modeledProfile(c.prof, n)
				tab.Rows = append(tab.Rows, []string{
					kind.short(), algo.String(), fmt.Sprint(n),
					pct(p.Percent(profiler.PhaseActionSelection)),
					pct(updatePct(p)),
					pct(otherPct(p)),
					pct(fig2PaperUpdatePct[kind][algo][n]),
					pct(updatePct(c.prof)),
				})
				tab.Runs = append(tab.Runs, c)
			}
		}
	}
	return &Result{ID: "fig2", Tables: []*Table{tab}}
}

func runFig3(scale Scale) *Result {
	tab := &Table{
		Title:   "Figure 3 reproduction: breakdown within update-all-trainers",
		Headers: []string{"env", "algo", "agents", "sampling %", "target-q %", "q-loss/p-loss %", "paper sampling %", "raw sampling %"},
		Notes: []string{
			"percentage columns use the CPU-GPU platform model; 'raw sampling %' is the unmodeled all-CPU share",
			"paper shape: mini-batch sampling is the largest component (~55-65%) at every agent count",
		},
	}
	for _, kind := range []envKind{envPredatorPrey, envCoopNav} {
		for _, algo := range []core.Algorithm{core.MADDPG, core.MATD3} {
			for _, n := range scale.AgentCounts {
				c := runCharacterization(algo, kind, n, scale)
				p := modeledProfile(c.prof, n)
				tab.Rows = append(tab.Rows, []string{
					kind.short(), algo.String(), fmt.Sprint(n),
					pct(p.PercentOfUpdate(profiler.PhaseSampling)),
					pct(p.PercentOfUpdate(profiler.PhaseTargetQ)),
					pct(p.PercentOfUpdate(profiler.PhaseQPLoss)),
					pct(fig3PaperSamplingPct[kind][algo][n]),
					pct(c.prof.PercentOfUpdate(profiler.PhaseSampling)),
				})
				tab.Runs = append(tab.Runs, c)
			}
		}
	}
	return &Result{ID: "fig3", Tables: []*Table{tab}}
}

func runFig6(scale Scale) *Result {
	tab := &Table{
		Title:   "Figure 6 reproduction: MADDPG predator-prey scalability",
		Headers: []string{"agents", "action-sel %", "update-all-trainers %", "other %", "gpu-model 60k (s)", "paper update %", "paper total (s)"},
		Notes: []string{
			"percentage columns use the CPU-GPU platform model (network phases on device)",
			"paper shape: update share climbs from 34% (3 agents) to 87% (48 agents); total time grows super-linearly",
		},
	}
	for _, n := range scale.BigAgentCounts {
		c := runCharacterization(core.MADDPG, envPredatorPrey, n, scale)
		p := modeledProfile(c.prof, n)
		perEp := p.Total().Seconds() / float64(c.episodes)
		paperUpd, okU := fig6PaperUpdatePct[n]
		paperTot, okT := fig6PaperTotalSec[n]
		paperUpdStr, paperTotStr := "-", "-"
		if okU {
			paperUpdStr = pct(paperUpd)
		}
		if okT {
			paperTotStr = fmt.Sprintf("%.0f", paperTot)
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(n),
			pct(p.Percent(profiler.PhaseActionSelection)),
			pct(updatePct(p)),
			pct(otherPct(p)),
			fmt.Sprintf("%.0f", perEp*60000),
			paperUpdStr,
			paperTotStr,
		})
		tab.Runs = append(tab.Runs, c)
	}
	return &Result{ID: "fig6", Tables: []*Table{tab}}
}
