package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"marlperf/internal/cli"
	"marlperf/internal/cli/clitest"
	"marlperf/internal/expserve"
	"marlperf/internal/expshard"
	"marlperf/internal/mpe"
)

// -trace-out is the one flag the shared set adds: the daemon writes it at
// drain (TestLifecycle reads it back).
func TestFlagSurface(t *testing.T) { clitest.Surface(t, run, "trace-out ") }

func TestUsageErrors(t *testing.T) {
	clitest.UsageErrors(t, run,
		[]string{"-no-such-flag"},
		[]string{"-env", "cn", "3"}, // a stray positional argument
		[]string{"-env", "typo"},
		[]string{"-capacity", "0"},
		[]string{"-ring", "h:1,h:2", "-shard-id", "shard-9"},
		[]string{"-trace-out", "t.json"}, // without -trace
	)
}

// TestLifecycle starts the daemon on free ports over a segment directory,
// checks every endpoint on both listeners, appends rows through the fabric
// client, then cancels it the way SIGTERM does: the drain flushes the
// ingest queue, it exits 0, the rows are on disk, the stats log ends with
// the exit state and -trace-out is whole.
func TestLifecycle(t *testing.T) {
	dir := t.TempDir()
	store, runlog, traceOut := filepath.Join(dir, "store"), filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "trace.json")
	p := clitest.Start(t, run, "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-dir", store, "-env", "cn", "-agents", "2", "-capacity", "1000",
		"-runlog", runlog, "-runlog-every", "20ms", "-trace", "-trace-out", traceOut)
	metrics := p.Await(t, `metrics: http://(\S+)/metrics`)[1]
	addr := p.Await(t, `serving /v1/append .* on http://(\S+)`)[1]
	for _, base := range []string{addr, metrics} {
		for _, path := range []string{"/healthz", "/metrics", "/tracez"} {
			if code, _ := clitest.Get(t, "http://"+base+path); code != 200 {
				t.Errorf("GET %s%s: %d", base, path, code)
			}
		}
	}
	if code, body := clitest.Get(t, "http://"+addr+"/v1/stats"); code != 200 || !strings.Contains(body, "arena_bytes") {
		t.Errorf("GET /v1/stats: %d %s", code, body)
	}

	const rows = 40
	appendRows(t, addr, rows, rows)
	_, body := clitest.Get(t, "http://"+metrics+"/metrics")
	if m := regexp.MustCompile(`(?m)^marl_exp_ingest_rows_total (\d+)`).FindStringSubmatch(body); m == nil || m[1] != "40" {
		t.Errorf("marl_exp_ingest_rows_total = %v, want 40", m)
	}

	if code := p.Stop(t); code != cli.ExitOK {
		t.Fatalf("exit %d after cancel; stderr:\n%s", code, p.Stderr.String())
	}
	if !strings.Contains(p.Stderr.String(), "drained; arena_bytes=") {
		t.Errorf("drain hook did not run; stderr:\n%s", p.Stderr.String())
	}
	if segs, _ := filepath.Glob(filepath.Join(store, "*.xpk")); len(segs) == 0 {
		t.Error("no segment file in -dir after the drain")
	}
	var last statsRecord
	if records := clitest.RunLog(t, runlog); len(records) == 0 {
		t.Error("stats log is empty")
	} else if err := json.Unmarshal(records[len(records)-1], &last); err != nil || last.IngestRows != rows {
		t.Errorf("stats log ends with %+v (err %v); want the exit state, %d rows ingested", last, err, rows)
	}
	clitest.ChromeTrace(t, traceOut)
}

// appendRows appends rows cooperative-navigation rows for two agents to the
// daemon at addr through the fabric client, flushing every batch rows.
func appendRows(t *testing.T, addr string, rows, batch int) {
	t.Helper()
	spec := cli.Spec(mpe.NewCooperativeNavigation(2), 1000)
	groups, err := expshard.ParseSpec(addr)
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := expserve.NewFabric(groups, expserve.FabricOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := expserve.NewShardedSink(fabric, "test-actor", spec)
	if err != nil {
		t.Fatal(err)
	}
	obs, act := [][]float64{make([]float64, spec.ObsDims[0]), make([]float64, spec.ObsDims[1])}, [][]float64{make([]float64, spec.ActDim), make([]float64, spec.ActDim)}
	for i := 1; i <= rows; i++ {
		if err := sink.Add(obs, act, []float64{1, 2}, obs, []float64{0, 0}); err != nil {
			t.Fatal(err)
		}
		if i%batch == 0 {
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
}

// stopAndReadLog stops the daemon, expecting exit 0, and returns its stats log.
func stopAndReadLog(t *testing.T, p *clitest.Proc, runlog string) []statsRecord {
	t.Helper()
	if code := p.Stop(t); code != cli.ExitOK {
		t.Fatalf("exit %d after cancel; stderr:\n%s", code, p.Stderr.String())
	}
	var records []statsRecord
	for _, line := range clitest.RunLog(t, runlog) {
		var rec statsRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	if len(records) == 0 {
		t.Fatal("stats log is empty")
	}
	return records
}

// TestVolatileRingRunLog ticks the stats log every millisecond over the
// volatile in-memory ring while appends land, so the race detector sees
// every row-count read the log makes beside the writes; the log must end
// with every row retained.
func TestVolatileRingRunLog(t *testing.T) {
	runlog := filepath.Join(t.TempDir(), "run.jsonl")
	p := clitest.Start(t, run, "-addr", "127.0.0.1:0", "-env", "cn", "-agents", "2", "-capacity", "1000",
		"-runlog", runlog, "-runlog-every", "1ms")
	addr := p.Await(t, `serving /v1/append .* on http://(\S+)`)[1]
	const rows = 200
	appendRows(t, addr, rows, 8)
	records := stopAndReadLog(t, p, runlog)
	if last := records[len(records)-1]; last.Rows != rows || last.IngestRows != rows {
		t.Errorf("stats log ends with %+v; want %d rows retained and ingested", last, rows)
	}
}

// TestRunLogShowsRecoveredRows restarts the daemon on a -dir store: the
// first stats record of the second run already counts the recovered rows.
func TestRunLogShowsRecoveredRows(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	const rows = 24
	for i, every := range []string{"1h", "1ms"} {
		runlog := filepath.Join(dir, fmt.Sprintf("run%d.jsonl", i))
		p := clitest.Start(t, run, "-addr", "127.0.0.1:0", "-dir", store, "-env", "cn", "-agents", "2",
			"-capacity", "1000", "-runlog", runlog, "-runlog-every", every)
		addr := p.Await(t, `serving /v1/append .* on http://(\S+)`)[1]
		if i == 0 {
			appendRows(t, addr, rows, rows)
			stopAndReadLog(t, p, runlog)
			continue
		}
		if first := stopAndReadLog(t, p, runlog)[0]; first.Rows != rows || first.IngestRows != 0 {
			t.Errorf("first record after restart %+v; want the %d recovered rows and nothing ingested", first, rows)
		}
	}
}
