// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner builds the workload, executes the
// measurement at the requested scale, and returns paper-style tables that
// include the paper's reference numbers next to the measured ones so shape
// agreement (who wins, by roughly what factor, where crossovers fall) can
// be checked directly.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"marlperf/internal/core"
	"marlperf/internal/mpe"
	"marlperf/internal/profiler"
	"marlperf/internal/replay"
	"marlperf/internal/tensor"
)

// Scale selects the measurement size. The paper's full runs take days on
// an RTX 3090; Small keeps every experiment in seconds-to-minutes while
// preserving relative shapes, Full pushes closer to paper parameters
// (batch 1024, more agents) at minutes-to-hours cost.
type Scale struct {
	Name string

	AgentCounts    []int // sweep for characterization/optimization figures
	BigAgentCounts []int // fig6 scalability sweep
	RewardAgents   []int // agent counts for reward-curve figures

	BufferFill    int // transitions pre-filled for sampling measurements
	Batch         int // mini-batch size for measurements
	SamplingIters int // sampling-phase repetitions per measurement

	CharEpisodes   int // episodes for phase-breakdown runs
	CharBatch      int // batch for phase-breakdown runs
	RewardEpisodes int // episodes for reward-curve runs
	RewardBatch    int
	RewardWindow   int // smoothing window for reward series
	E2EEpisodes    int // episodes for end-to-end reduction runs

	// UpdateWorkers sizes the trainer's update-stage worker pool. The
	// characterization figures measure the serial pipeline of §III, so both
	// built-in scales keep it at 1; results are seed-identical either way.
	UpdateWorkers int
}

// SmallScale keeps the whole suite quick enough for go test benchmarks.
func SmallScale() Scale {
	return Scale{
		Name:           "small",
		AgentCounts:    []int{3, 6},
		BigAgentCounts: []int{3, 6, 12},
		RewardAgents:   []int{3},
		BufferFill:     20_000,
		Batch:          256,
		SamplingIters:  40,
		CharEpisodes:   6,
		CharBatch:      512,
		RewardEpisodes: 40,
		RewardBatch:    64,
		RewardWindow:   8,
		E2EEpisodes:    8,
		UpdateWorkers:  1,
	}
}

// FullScale sweeps the paper's agent counts with batch 1024.
func FullScale() Scale {
	return Scale{
		Name:           "full",
		AgentCounts:    []int{3, 6, 12, 24},
		BigAgentCounts: []int{3, 6, 12, 24, 48},
		RewardAgents:   []int{6, 12},
		BufferFill:     100_000,
		Batch:          1024,
		SamplingIters:  30,
		CharEpisodes:   8,
		CharBatch:      1024,
		RewardEpisodes: 300,
		RewardBatch:    256,
		RewardWindow:   20,
		E2EEpisodes:    10,
		UpdateWorkers:  1,
	}
}

// ScaleByName returns the built-in scale called "small" or "full".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return SmallScale(), nil
	case "full":
		return FullScale(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (want small or full)", name)
}

// Table is a formatted result block.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string

	// Runs, when set, holds the training run each row was computed from
	// (Runs[i] for Rows[i]); WriteJSON attaches it to the row as a run block.
	Runs []*charOutcome
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Headers)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Tables []*Table
}

// String renders all tables.
func (r *Result) String() string {
	parts := make([]string, 0, len(r.Tables))
	for _, t := range r.Tables {
		parts = append(parts, t.String())
	}
	return strings.Join(parts, "\n")
}

// Markdown renders all tables as markdown sections.
func (r *Result) Markdown() string {
	parts := make([]string, 0, len(r.Tables))
	for _, t := range r.Tables {
		parts = append(parts, t.Markdown())
	}
	return strings.Join(parts, "\n")
}

// rowJSON is one line of WriteJSON's output. Headers and cells are arrays
// because a table may repeat a header (fig8's "reduction" and "paper").
type rowJSON struct {
	Experiment string   `json:"experiment"`
	Scale      string   `json:"scale"`
	Table      string   `json:"table"`
	Headers    []string `json:"headers"`
	Cells      []string `json:"cells"`
	Kernels    string   `json:"kernels"` // tensor.KernelPath: timings depend on it
	Workers    int      `json:"workers"`
	Run        *runJSON `json:"run,omitempty"`
}

// runJSON is the training run behind a row: its phase profile and the
// simulated sampling counters of the same (env, agents), which are fig4's
// raw row for that configuration. Counters are left out for an agent count
// fig4 does not sweep (fig6's largest): fig4 has no row for it, and its
// unbounded fill would not fit in memory at 48 agents.
type runJSON struct {
	Env       string            `json:"env"`
	Algo      string            `json:"algo"`
	Agents    int               `json:"agents"`
	Episodes  int               `json:"episodes"`
	ElapsedMS int64             `json:"elapsed_ms"`
	Profile   *profiler.Profile `json:"profile"`
	Counters  *samplingCounters `json:"sampling_counters,omitempty"`
}

// samplingCounters is the simulated hardware-counter block of a run.
type samplingCounters struct {
	Accesses   uint64 `json:"accesses"`
	L1Misses   uint64 `json:"l1_misses"`
	LLCMisses  uint64 `json:"llc_misses"`
	DTLBMisses uint64 `json:"dtlb_misses"`
}

// WriteJSON writes one JSON line per table row, each stamped with the
// experiment, the scale it ran at, the kernel body and the update-worker
// count. Rows computed from a training run carry it as a run block.
func (r *Result) WriteJSON(w io.Writer, scale Scale) error {
	enc := json.NewEncoder(w)
	workers := core.Config{UpdateWorkers: scale.UpdateWorkers}.ResolvedUpdateWorkers()
	for _, t := range r.Tables {
		for i, row := range t.Rows {
			line := rowJSON{
				Experiment: r.ID, Scale: scale.Name, Table: t.Title,
				Headers: t.Headers, Cells: row,
				Kernels: tensor.KernelPath(), Workers: workers,
			}
			if i < len(t.Runs) {
				c := t.Runs[i]
				line.Run = &runJSON{
					Env: c.kind.String(), Algo: c.algo.String(),
					Agents: c.agents, Episodes: c.episodes,
					ElapsedMS: c.wall.Milliseconds(),
					Profile:   c.prof,
				}
				if slices.Contains(scale.AgentCounts, c.agents) {
					st := sampleTraceStats(c.kind, c.agents, scale.BufferFill, scale.Batch)
					line.Run.Counters = &samplingCounters{
						Accesses: st.Accesses, L1Misses: st.L1Misses,
						LLCMisses: st.L3Misses, DTLBMisses: st.TLBMisses,
					}
				}
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return nil
}

// Runner executes one experiment at a scale.
type Runner struct {
	ID          string
	Description string
	Run         func(scale Scale) *Result
}

var registry = map[string]*Runner{}

func register(r *Runner) {
	if _, dup := registry[r.ID]; dup {
		panic("experiments: duplicate runner " + r.ID)
	}
	registry[r.ID] = r
}

// Get returns the runner with the given ID, or nil.
func Get(id string) *Runner { return registry[id] }

// IDs lists all registered experiment IDs in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// All returns every runner in ID order.
func All() []*Runner {
	out := make([]*Runner, 0, len(registry))
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}

// envKind selects the multi-agent particle game.
type envKind int

const (
	envPredatorPrey envKind = iota
	envCoopNav
)

func (e envKind) String() string {
	if e == envPredatorPrey {
		return "predator-prey"
	}
	return "cooperative-navigation"
}

func (e envKind) short() string {
	if e == envPredatorPrey {
		return "PP"
	}
	return "CN"
}

func newEnv(kind envKind, agents int) mpe.Env {
	if kind == envPredatorPrey {
		return mpe.NewPredatorPrey(agents)
	}
	return mpe.NewCooperativeNavigation(agents)
}

// newSpec returns the replay spec matching an env configuration.
func newSpec(kind envKind, agents, capacity int) replay.Spec {
	env := newEnv(kind, agents)
	return replay.Spec{
		NumAgents: env.NumAgents(),
		ObsDims:   env.ObsDims(),
		ActDim:    env.NumActions(),
		Capacity:  capacity,
	}
}

// fillSynthetic loads n random transitions into buf.
func fillSynthetic(buf *replay.Buffer, n int, rng *rand.Rand) {
	spec := buf.Spec()
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
			for j := range act[a] {
				act[a][j] = 0
			}
			act[a][rng.Intn(spec.ActDim)] = 1
			rew[a] = rng.NormFloat64()
			done[a] = 0
		}
		buf.Add(obs, act, rew, nextObs, done)
	}
}

// newBatches allocates per-agent gather destinations for a spec.
func newBatches(spec replay.Spec, batch int) []*replay.AgentBatch {
	out := make([]*replay.AgentBatch, spec.NumAgents)
	for a := range out {
		out[a] = replay.NewAgentBatch(batch, spec.ObsDims[a], spec.ActDim)
	}
	return out
}

// charConfig builds a trainer config for characterization runs. The buffer
// capacity is sized to the (capped) characterization fill so the sampling
// phase works against a realistically out-of-cache footprint.
func charConfig(algo core.Algorithm, scale Scale, spec replay.Spec) core.Config {
	cfg := core.DefaultConfig(algo)
	cfg.BatchSize = scale.CharBatch
	cfg.BufferCapacity = maxInt(cappedFill(spec, scale.BufferFill), 4*scale.CharBatch)
	cfg.WarmupSize = scale.CharBatch
	cfg.UpdateWorkers = scale.UpdateWorkers
	return cfg
}

// fillBytesLimit caps replay allocations for large-agent sweeps.
const fillBytesLimit = int64(1024) << 20 // 1 GiB

// cappedFill limits a desired transition count so the buffer stays within
// fillBytesLimit for this spec (large agent counts have multi-KB rows).
func cappedFill(spec replay.Spec, want int) int {
	var rowBytes int64
	for _, od := range spec.ObsDims {
		rowBytes += int64(2*od+spec.ActDim+2) * 8
	}
	if rowBytes <= 0 {
		return want
	}
	limit := int(fillBytesLimit / rowBytes)
	if want > limit {
		return limit
	}
	return want
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// reduction returns the percentage improvement of opt over base
// (positive = faster).
func reduction(base, opt float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - opt) / base
}
