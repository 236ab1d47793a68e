package experiments

import (
	"os"
	"strings"
	"testing"
)

// simulatedCounters renders, at tiny scale, every column the experiments
// compute only from simcache stats: fig4 whole, fig8's miss table, the
// fig12/fig13 MBS reduction, fig14's memory-system table and the LLC/dTLB
// columns of the two sampler ablations. Wall-clock columns are left out:
// they differ from run to run.
func simulatedCounters(t *testing.T) string {
	t.Helper()
	run := func(id string) *Result {
		r := Get(id)
		if r == nil {
			t.Fatalf("runner %q missing", id)
		}
		return r.Run(tinyScale())
	}
	var b strings.Builder
	b.WriteString(run("fig4").String())
	b.WriteString(run("fig8").Tables[1].String())
	for _, id := range []string{"fig12", "fig13"} {
		b.WriteString(columns(t, run(id).Tables[0], "agents", "MBS reduction (n16r64)").String())
	}
	b.WriteString(run("fig14").Tables[2].String())
	b.WriteString(columns(t, run("ablation-neighbors").Tables[0], "neighbors", "refs", "LLC misses", "dTLB misses").String())
	b.WriteString(columns(t, run("ablation-ip").Tables[0], "predictor", "LLC misses").String())
	return b.String()
}

// columns returns the named columns of tab, notes dropped.
func columns(t *testing.T, tab *Table, names ...string) *Table {
	t.Helper()
	out := &Table{Title: tab.Title, Headers: names, Rows: make([][]string, len(tab.Rows))}
	for _, name := range names {
		col := -1
		for i, h := range tab.Headers {
			if h == name {
				col = i
			}
		}
		if col < 0 {
			t.Fatalf("table %q has no column %q: %q", tab.Title, name, tab.Headers)
		}
		for r, row := range tab.Rows {
			out.Rows[r] = append(out.Rows[r], row[col])
		}
	}
	return out
}

// TestSimulatedCountersGolden pins the simulated counters against
// testdata/simcounters.golden, written by the commit before the counter
// loops were folded into one helper, and re-pinned once when the uniform
// and locality samplers began drawing their indices through the sample
// plan (every table but the IP predictor's moved). The cache model and the
// traced address streams are deterministic, so any difference is a changed
// access stream or a changed model.
func TestSimulatedCountersGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/simcounters.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := simulatedCounters(t); got != string(want) {
		t.Errorf("simulated counters differ from testdata/simcounters.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
