package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// tinyScale keeps runner tests fast: minimal agent counts, episodes and
// iterations while still exercising every code path.
func tinyScale() Scale {
	return Scale{
		Name:           "tiny",
		AgentCounts:    []int{2, 3},
		BigAgentCounts: []int{2, 3},
		RewardAgents:   []int{2},
		BufferFill:     600,
		Batch:          64,
		SamplingIters:  3,
		CharEpisodes:   2,
		CharBatch:      48,
		RewardEpisodes: 6,
		RewardBatch:    32,
		RewardWindow:   2,
		E2EEpisodes:    3,
	}
}

func TestRegistryContainsEveryPaperExperiment(t *testing.T) {
	want := []string{
		"table1", "fig2", "fig3", "fig4", "fig6", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14",
		"ablation-neighbors", "ablation-ip", "ablation-beta", "ablation-rankper", "ablation-reuse",
	}
	for _, id := range want {
		r := Get(id)
		if r == nil {
			t.Fatalf("experiment %q not registered", id)
		}
		if r.Description == "" {
			t.Errorf("experiment %q has no description (marl-bench -list prints it)", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(IDs()), len(want), IDs())
	}
	if len(All()) != len(want) {
		t.Fatalf("All() returned %d runners", len(All()))
	}
}

func TestGetUnknownReturnsNil(t *testing.T) {
	if Get("nope") != nil {
		t.Fatal("unknown ID should return nil")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	s := tab.String()
	for _, want := range []string{"== demo ==", "333", "note: a note", "---"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table rendering missing %q:\n%s", want, s)
		}
	}
}

func TestScalesAreConsistent(t *testing.T) {
	for _, s := range []Scale{SmallScale(), FullScale(), tinyScale()} {
		if len(s.AgentCounts) == 0 || s.Batch < 1 || s.BufferFill < s.Batch {
			t.Fatalf("scale %q malformed: %+v", s.Name, s)
		}
		if s.RewardWindow < 1 || s.RewardEpisodes < s.RewardWindow {
			t.Fatalf("scale %q has bad reward windows", s.Name)
		}
	}
}

func TestReductionHelper(t *testing.T) {
	if got := reduction(100, 80); got != 20 {
		t.Fatalf("reduction(100,80) = %v, want 20", got)
	}
	if got := reduction(100, 120); got != -20 {
		t.Fatalf("reduction(100,120) = %v, want -20", got)
	}
	if got := reduction(0, 5); got != 0 {
		t.Fatalf("reduction with zero base = %v, want 0", got)
	}
}

// runAndCheck executes a runner at tiny scale and sanity-checks the output.
func runAndCheck(t *testing.T, id string, wantHeaders ...string) *Result {
	t.Helper()
	r := Get(id)
	if r == nil {
		t.Fatalf("runner %q missing", id)
	}
	res := r.Run(tinyScale())
	if res.ID != id {
		t.Fatalf("runner %q returned ID %q", id, res.ID)
	}
	if len(res.Tables) == 0 {
		t.Fatalf("runner %q produced no tables", id)
	}
	out := res.String()
	for _, h := range wantHeaders {
		if !strings.Contains(out, h) {
			t.Fatalf("runner %q output missing %q:\n%s", id, h, out)
		}
	}
	for _, tab := range res.Tables {
		if len(tab.Rows) == 0 {
			t.Fatalf("runner %q produced empty table %q", id, tab.Title)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Headers) {
				t.Fatalf("runner %q table %q: row width %d vs %d headers", id, tab.Title, len(row), len(tab.Headers))
			}
		}
	}
	return res
}

func TestRunTable1Tiny(t *testing.T) {
	runAndCheck(t, "table1", "extrap 60k (s)", "paper (s)", "growth")
}

func TestRunFig2Tiny(t *testing.T) {
	runAndCheck(t, "fig2", "update-all-trainers %", "paper update %")
}

func TestRunFig3Tiny(t *testing.T) {
	runAndCheck(t, "fig3", "sampling %", "target-q %")
}

func TestRunFig4Tiny(t *testing.T) {
	res := runAndCheck(t, "fig4", "cache misses", "dTLB")
	// Growth rows exist for each env (one transition: 2→3 agents).
	if len(res.Tables[0].Rows) != 2 {
		t.Fatalf("fig4 growth rows = %d, want 2", len(res.Tables[0].Rows))
	}
}

func TestRunFig6Tiny(t *testing.T) {
	runAndCheck(t, "fig6", "update-all-trainers %", "paper total (s)")
}

func TestRunFig8Tiny(t *testing.T) {
	runAndCheck(t, "fig8", "n16r64", "n64r16", "LLC misses")
}

func TestRunFig9Tiny(t *testing.T) {
	runAndCheck(t, "fig9", "reduction", "paper")
}

func TestRunFig10Tiny(t *testing.T) {
	res := runAndCheck(t, "fig10", "baseline", "n16r64")
	// Panels: PP + CN for the single reward agent count.
	if len(res.Tables) != 2 {
		t.Fatalf("fig10 tables = %d, want 2", len(res.Tables))
	}
}

func TestRunFig11Tiny(t *testing.T) {
	res := runAndCheck(t, "fig11", "per-maddpg", "ip-maddpg", "speedup")
	last := res.Tables[len(res.Tables)-1]
	if !strings.Contains(last.Title, "PER vs information-prioritized") {
		t.Fatalf("fig11 missing sampling-speed table, got %q", last.Title)
	}
}

func TestRunFig12Fig13Tiny(t *testing.T) {
	runAndCheck(t, "fig12", "MBS reduction", "TT reduction")
	runAndCheck(t, "fig13", "MBS reduction", "TT reduction")
}

func TestRunFig14Tiny(t *testing.T) {
	res := runAndCheck(t, "fig14", "kv gather", "reshape", "speedup", "LLC ratio")
	if len(res.Tables) != 3 {
		t.Fatalf("fig14 tables = %d, want 3 (inclusive + exclusive + memory-system)", len(res.Tables))
	}
}

func TestRunAblationsTiny(t *testing.T) {
	runAndCheck(t, "ablation-neighbors", "neighbors", "LLC misses")
	runAndCheck(t, "ablation-ip", "predictor", "mean run length")
	runAndCheck(t, "ablation-beta", "beta", "final reward")
	runAndCheck(t, "ablation-rankper", "proportional", "rank-based", "outlier share")
	runAndCheck(t, "ablation-reuse", "reuse w=2", "distinct batches")
}

func TestTableMarkdownRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"a note"},
	}
	md := tab.Markdown()
	for _, want := range []string{"### demo", "| a | b |", "| --- | --- |", "| 1 | 2 |", "*a note*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestFig4GrowthIsSuperLinear(t *testing.T) {
	// The paper's headline characterization: counters grow super-linearly
	// (more than 2x when agents double). With tiny 2→3 agent steps we
	// require growth above the linear ratio 1.5.
	a := sampleTraceStats(envPredatorPrey, 2, 2000, 64)
	b := sampleTraceStats(envPredatorPrey, 4, 2000, 64)
	if r := ratio(b.Accesses, a.Accesses); r <= 2 {
		t.Fatalf("access growth %v for 2x agents, want super-linear (>2)", r)
	}
}

// fig2 as JSON: one line per row, each with a run block whose profile is
// the row's training run and whose sampling counters are fig4's raw row
// for the same env and agent count.
func TestJSONFormatCarriesFig4Counters(t *testing.T) {
	scale := tinyScale()
	fig4 := map[string]string{} // "PP 2" → "accesses L1 LLC dTLB"
	for _, row := range Get("fig4").Run(scale).Tables[1].Rows {
		fig4[row[0]+" "+row[1]] = strings.Join(row[2:], " ")
	}
	res := Get("fig2").Run(scale)
	var out bytes.Buffer
	if err := res.WriteJSON(&out, scale); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(res.Tables[0].Rows) {
		t.Fatalf("%d JSON lines for %d rows:\n%s", len(lines), len(res.Tables[0].Rows), out.String())
	}
	short := map[string]string{}
	for _, k := range []envKind{envPredatorPrey, envCoopNav} {
		short[k.String()] = k.short()
	}
	for i, l := range lines {
		var line struct {
			Experiment, Scale, Kernels string
			Workers                    int
			Cells                      []string
			Run                        *struct {
				Env     string
				Agents  int
				Profile struct {
					TotalNanos int64 `json:"total_nanos"`
				}
				Counters *samplingCounters `json:"sampling_counters"`
			}
		}
		if err := json.Unmarshal([]byte(l), &line); err != nil {
			t.Fatalf("line %d: %v: %s", i, err, l)
		}
		if line.Experiment != "fig2" || line.Scale != "tiny" || line.Kernels == "" || line.Workers < 1 {
			t.Errorf("line %d stamps: %s", i, l)
		}
		if line.Run == nil || line.Run.Profile.TotalNanos <= 0 || line.Run.Counters == nil {
			t.Fatalf("line %d has no run block with a profile and counters: %s", i, l)
		}
		c := line.Run.Counters
		key := fmt.Sprintf("%s %d", short[line.Run.Env], line.Run.Agents)
		if got := fmt.Sprint(c.Accesses, c.L1Misses, c.LLCMisses, c.DTLBMisses); got != fig4[key] {
			t.Errorf("line %d (%s): sampling counters %s, fig4 raw row %q", i, key, got, fig4[key])
		}
		if strings.Join(line.Cells, "|") != strings.Join(res.Tables[0].Rows[i], "|") {
			t.Errorf("line %d cells %q, row %q", i, line.Cells, res.Tables[0].Rows[i])
		}
	}
}
