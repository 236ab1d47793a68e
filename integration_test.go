package marlperf_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"marlperf/internal/core"
	"marlperf/internal/mpe"
	"marlperf/internal/profiler"
	"marlperf/internal/telemetry"
)

// scrapeMetrics GETs /metrics and returns every sample as series→value,
// where series is the exposition name with its label set, e.g.
// `marl_phase_seconds_sum{phase="sampling"}`.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ExpositionContentType {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	if len(samples) == 0 {
		t.Fatal("/metrics body had no samples")
	}
	return samples
}

// TestLiveMetricsMatchProfiler is the PR's end-to-end acceptance check: a
// training run with a live metrics endpoint and a run log attached must
// expose per-phase histograms and event counters on /metrics that agree
// with the trainer's own profiler.Profile, and the run log must hold
// exactly one valid JSONL record per update step.
func TestLiveMetricsMatchProfiler(t *testing.T) {
	cfg := core.DefaultConfig(core.MADDPG)
	cfg.BatchSize = 32
	cfg.BufferCapacity = 4096
	cfg.WarmupSize = 32
	cfg.UpdateEvery = 10
	cfg.UpdateWorkers = 2
	tr, err := core.NewTrainer(cfg, mpe.NewPredatorPrey(3))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	reg := telemetry.NewRegistry()
	tr.SetPhaseObserver(telemetry.NewPhaseCollector(reg))

	profSnap := &telemetry.JSONSnapshot{}
	srv, err := telemetry.StartServer("127.0.0.1:0", telemetry.ServerConfig{
		Registry: reg,
		Profilez: profSnap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	logPath := filepath.Join(t.TempDir(), "run.jsonl")
	runLog, err := telemetry.CreateRunLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer runLog.Close()
	tr.SetUpdateListener(func(ev core.UpdateEvent) {
		if err := runLog.Append(ev); err != nil {
			t.Errorf("run log append: %v", err)
		}
	})

	tr.RunEpisodes(6, nil)
	prof := tr.Profile()
	if data, err := json.Marshal(prof); err == nil {
		profSnap.Set(data)
	}
	if err := runLog.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.UpdateCount() == 0 || prof.Count(profiler.PhaseSampling) == 0 {
		t.Fatal("run did no updates — test exercised nothing")
	}

	base := "http://" + srv.Addr()
	samples := scrapeMetrics(t, base)

	// Per-phase histogram sums and counts must match the profiler totals:
	// counts exactly, sums to float tolerance (nanosecond→second conversion
	// and summation-order differences).
	for _, p := range profiler.Phases() {
		wantCount := prof.Count(p)
		count, okCount := samples[fmt.Sprintf("%s_count{phase=%q}", telemetry.MetricPhaseSeconds, p.String())]
		sum, okSum := samples[fmt.Sprintf("%s_sum{phase=%q}", telemetry.MetricPhaseSeconds, p.String())]
		if wantCount == 0 {
			if okCount && count != 0 {
				t.Fatalf("phase %v: profile has no calls but /metrics has count %v", p, count)
			}
			continue
		}
		if !okCount || !okSum {
			t.Fatalf("phase %v: missing histogram series on /metrics", p)
		}
		if uint64(count) != wantCount {
			t.Fatalf("phase %v: /metrics count %v, profile has %d", p, count, wantCount)
		}
		wantSum := prof.Duration(p).Seconds()
		if diff := math.Abs(sum - wantSum); diff > 1e-6*math.Max(1, wantSum) {
			t.Fatalf("phase %v: /metrics sum %v s, profile has %v s", p, sum, wantSum)
		}
	}

	// Resilience/event counters must match exactly.
	for _, name := range prof.Events() {
		series := fmt.Sprintf("%s{event=%q}", telemetry.MetricEventsTotal, name)
		got, ok := samples[series]
		if !ok {
			t.Fatalf("event %q: no counter on /metrics", name)
		}
		if uint64(got) != prof.EventCount(name) {
			t.Fatalf("event %q: /metrics has %v, profile has %d", name, got, prof.EventCount(name))
		}
	}

	// /healthz and /profilez round out the endpoint surface.
	hr, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || strings.TrimSpace(string(hb)) != "ok" {
		t.Fatalf("/healthz: status %d body %q", hr.StatusCode, hb)
	}
	pr, err := http.Get(base + "/profilez")
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := io.ReadAll(pr.Body)
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("/profilez status %d", pr.StatusCode)
	}
	var profDoc struct {
		TotalNanos int64 `json:"total_nanos"`
	}
	if err := json.Unmarshal(pb, &profDoc); err != nil {
		t.Fatalf("/profilez body is not JSON: %v", err)
	}
	if profDoc.TotalNanos <= 0 {
		t.Fatalf("/profilez total_nanos = %d", profDoc.TotalNanos)
	}

	// The run log must contain exactly one well-formed record per update,
	// in order, with the run's sampler and worker metadata.
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []core.UpdateEvent
	n, err := telemetry.ScanRunLog(f, func(line json.RawMessage) error {
		var ev core.UpdateEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != tr.UpdateCount() || len(events) != tr.UpdateCount() {
		t.Fatalf("run log has %d records for %d updates", n, tr.UpdateCount())
	}
	now := time.Now().UnixNano()
	for i, ev := range events {
		if ev.Update != i+1 {
			t.Fatalf("record %d has update index %d", i, ev.Update)
		}
		if ev.Workers != cfg.ResolvedUpdateWorkers() || ev.Sampler == "" {
			t.Fatalf("record %d metadata: workers=%d sampler=%q", i, ev.Workers, ev.Sampler)
		}
		if ev.TimeUnixNano <= 0 || ev.TimeUnixNano > now {
			t.Fatalf("record %d timestamp %d out of range", i, ev.TimeUnixNano)
		}
	}
}
