package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// runShort runs one workload at test size for a fixed op count and returns
// the parsed result and the human-readable output.
func runShort(t *testing.T, workload string, trace string, ops string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", "7", "-short", "-ops", ops, "-trace", trace, "-out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s exited %d\nstdout:\n%s\nstderr:\n%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	return res, strings.Join(lines[:len(lines)-1], "\n")
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestWithinTheContract checks BENCHMARK.json against the limits
// the benchmark driver refuses a file for.
func TestManifestWithinTheContract(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	if runs := 4 + 22*len(m.Workloads); runs*(m.RunSeconds+8) > 3420 {
		t.Errorf("%d runs of %d s plus set-up do not fit the driver's 3420 s", runs, m.RunSeconds)
	}
	seen := map[string]bool{}
	unique := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a valid name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		unique("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		unique("end-to-end", e.Name)
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: bad unit %q", e.Name, e.Unit)
		}
		if e.Better != "lower" && e.Better != "higher" {
			t.Errorf("%s: better = %q", e.Name, e.Better)
		}
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", e.Name)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == "lower"
			for _, o := range m.EndToEnd {
				if o.Bound != nil && e.Bound != nil && *o.Bound > *e.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, *o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(m.PerLayer))
	}
	for _, p := range m.PerLayer {
		unique("per-layer", p.Name)
		if !unitRE.MatchString(p.Unit) {
			t.Errorf("%s: bad unit %q", p.Name, p.Unit)
		}
		if p.Better != "lower" && p.Better != "higher" {
			t.Errorf("%s: better = %q", p.Name, p.Better)
		}
		if p.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", p.Name)
		}
	}
}

// TestEveryDeclaredMetricIsEmittedOnce runs every declared workload both
// ways and compares what it prints with what BENCHMARK.json declares, in
// both directions: nothing declared is missing, nothing emitted is
// undeclared, units agree, and each name is printed exactly once.
func TestEveryDeclaredMetricIsEmittedOnce(t *testing.T) {
	m := readManifest(t)
	var declared []string
	for _, w := range m.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(declared, ",") {
		t.Fatalf("driver has workloads %v, BENCHMARK.json declares %v", got, declared)
	}
	for _, w := range m.Workloads {
		for _, mode := range []struct {
			trace string
			defs  []manifestMetric
		}{{"0", m.EndToEnd}, {"1", m.PerLayer}} {
			res, text := runShort(t, w.Name, mode.trace, "8")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			for _, d := range mode.defs {
				want[d.Name] = d.Unit
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%s: declared metric %s is not emitted", w.Name, mode.trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%s: %s emitted in %q, declared in %q", w.Name, mode.trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%s: emitted metric %s is not declared", w.Name, mode.trace, name)
				}
			}
			printed := map[string]int{}
			for _, line := range strings.Split(text, "\n") {
				if f := strings.Fields(line); len(f) == 3 {
					printed[f[0]]++
				}
			}
			for name := range want {
				if printed[name] != 1 {
					t.Errorf("%s trace=%s: %s is printed %d times, want once", w.Name, mode.trace, name, printed[name])
				}
			}
		}
	}
}

// TestCountsRepeatExactly: the per-layer counts are a property of the
// workload, not of the run — two runs of one seed must agree to the digit.
func TestCountsRepeatExactly(t *testing.T) {
	counts := []string{
		"expserve.rpcs_per_op",
		"expserve.sample_bytes_per_op",
		"expserve.append_bytes_per_op",
		"expserve.retries",
		"policysync.snapshot_bytes",
	}
	for _, w := range []string{"fabric-sample", "fabric-ingest", "loop-lockstep"} {
		a, textA := runShort(t, w, "1", "12")
		b, textB := runShort(t, w, "1", "12")
		if a.Attempted != b.Attempted {
			t.Errorf("%s: attempted %d then %d", w, a.Attempted, b.Attempted)
		}
		for _, c := range counts {
			if a.Metrics[c].Value != b.Metrics[c].Value {
				t.Errorf("%s: %s = %v then %v", w, c, a.Metrics[c].Value, b.Metrics[c].Value)
			}
		}
		if a.Metrics["expserve.rpcs_per_op"].Value == 0 {
			t.Errorf("%s: no experience RPCs were counted", w)
		}
		if a.Metrics["expserve.retries"].Value != 0 {
			t.Errorf("%s: %v retries on loopback", w, a.Metrics["expserve.retries"].Value)
		}
		// The rows-sent and rows-ingested line of the checks.
		if la, lb := checkLine(textA, w), checkLine(textB, w); la == "" || la != lb {
			t.Errorf("%s: check lines differ:\n%s\n%s", w, la, lb)
		}
	}
}

// TestSectionReportsTheQuietDecile: of twenty blocks, two of them fast
// (a lucky host) and half of them slow (a busy one), the run reports the
// second-best block of each figure, not the median block.
func TestSectionReportsTheQuietDecile(t *testing.T) {
	var s section
	for b := 1; b <= 20; b++ {
		ms := 10 + float64(b) // 11 … 30
		if b > 10 {
			ms *= 2
		}
		s.blockP50 = append(s.blockP50, ms)
		s.blockMs = append(s.blockMs, ms+1)
		s.blockOp = append(s.blockOp, ms)
	}
	if got := s.opP50Ms(); got != 12 {
		t.Errorf("op_p50_ms = %v, want the second-best block's 12", got)
	}
	if got := s.cpuMsPerOp(); got != 13 {
		t.Errorf("cpu_ms_per_op = %v, want 13", got)
	}
	if got, want := s.opsPerS(), 1000.0/12; got != want {
		t.Errorf("ops_per_s = %v, want %v", got, want)
	}
}

func checkLine(text, workload string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, workload+":") {
			return line
		}
	}
	return ""
}
