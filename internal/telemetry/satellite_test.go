package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"marlperf/internal/profiler"
)

// TestPhaseCollectorExactlyOnceUnderConcurrentDrains is the exactly-once
// contract under the parallel update engine's real interleaving: worker
// shards observe phases concurrently while draining into a shared merge
// profile between rounds. Every observation must land in the registry
// exactly once — notified at Add time, never re-notified by DrainInto —
// so the final histogram count equals the number of Adds precisely.
// Run with -race this doubles as the collector's concurrency test.
func TestPhaseCollectorExactlyOnceUnderConcurrentDrains(t *testing.T) {
	const (
		workers = 8
		rounds  = 20
		perAdd  = 25
	)
	reg := NewRegistry()
	col := NewPhaseCollector(reg)

	var mu sync.Mutex
	var main profiler.Profile
	main.SetObserver(col) // must not cause double delivery on merge

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := &profiler.Profile{}
			sh.SetObserver(col)
			for r := 0; r < rounds; r++ {
				for i := 0; i < perAdd; i++ {
					sh.Add(profiler.PhaseTargetQ, time.Microsecond)
				}
				sh.Event(profiler.EventCheckpointWritten, 1)
				mu.Lock()
				sh.DrainInto(&main)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	const wantObs = workers * rounds * perAdd
	hist := reg.Histogram(MetricPhaseSeconds, nil, "phase", profiler.PhaseTargetQ.String())
	if got := hist.Count(); got != wantObs {
		t.Fatalf("histogram count = %d, want exactly %d (lost or duplicated observations)", got, wantObs)
	}
	if got, want := main.Count(profiler.PhaseTargetQ), uint64(wantObs); got != want {
		t.Fatalf("merged profile count = %d, want %d", got, want)
	}
	if got := reg.Counter(MetricEventsTotal, "event", profiler.EventCheckpointWritten).Value(); got != workers*rounds {
		t.Fatalf("event counter = %d, want %d", got, workers*rounds)
	}
}

// Prometheus text exposition grammar, per line.
var (
	promHelpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*",?)*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$`)
)

// TestExpositionParseable is the scrape-compatibility regression: render a
// registry exercising every metric kind this codebase registers — counters
// with and without labels, gauges, multi-bucket histograms including the
// new lag families — and verify every line of /metrics output against the
// Prometheus text-format grammar, plus the structural invariants a real
// scraper enforces (TYPE before samples, cumulative monotone buckets
// ending at +Inf, _count matching the final bucket).
func TestExpositionParseable(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("marl_exp_ingest_rows_total", "Rows ingested.")
	reg.Counter("marl_exp_ingest_rows_total").Add(12345)
	reg.Counter("marl_events_total", "event", `odd"label\with
newline`).Inc()
	reg.Gauge("marl_policy_staleness_versions").Set(3)
	reg.Gauge("marl_spool_depth_batches").Set(-0)
	ageH := reg.Histogram("marl_exp_sample_age_rows", []float64{100, 1000, 10000})
	for _, v := range []float64{50, 500, 5000, 50000} {
		ageH.Observe(v)
	}
	lagH := reg.Histogram("marl_policy_act_lag_versions", []float64{0, 1, 2, 4})
	for _, v := range []float64{0, 0, 1, 3, 9} {
		lagH.Observe(v)
	}

	var b strings.Builder
	if err := reg.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.HasSuffix(text, "\n") {
		t.Fatal("exposition must end with a newline")
	}

	typed := map[string]string{} // family → declared type
	// bucketCum tracks the last cumulative bucket value per histogram series
	// (keyed by the full label set minus le).
	bucketCum := map[string]float64{}
	sawInf := map[string]bool{}
	counts := map[string]float64{}

	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !promHelpRe.MatchString(line) {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			if !promTypeRe.MatchString(line) {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			parts := strings.Fields(line)
			typed[parts[2]] = parts[3]
		default:
			m := promSampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: not a valid sample line: %q", i+1, line)
			}
			name := m[1]
			value, err := strconv.ParseFloat(m[5], 64)
			if err != nil {
				t.Fatalf("line %d: unparseable value %q: %v", i+1, m[5], err)
			}
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); base != name && typed[base] == "histogram" {
					family = base
				}
			}
			if _, ok := typed[family]; !ok {
				t.Fatalf("line %d: sample %q appears before its TYPE declaration", i+1, name)
			}
			if strings.HasSuffix(name, "_bucket") && typed[family] == "histogram" {
				series := family + seriesLabels(m[2])
				if value < bucketCum[series] {
					t.Fatalf("line %d: bucket not cumulative: %q drops to %v", i+1, line, value)
				}
				bucketCum[series] = value
				if leOf(m[2]) == "+Inf" {
					sawInf[series] = true
					counts[series+"/bucketInf"] = value
				}
			}
			if strings.HasSuffix(name, "_count") && typed[family] == "histogram" {
				counts[family+seriesLabels(m[2])+"/count"] = value
			}
		}
	}
	if len(sawInf) != 2 {
		t.Fatalf("expected 2 histogram series with +Inf tails, saw %d", len(sawInf))
	}
	for series := range sawInf {
		inf := counts[series+"/bucketInf"]
		cnt := counts[series+"/count"]
		if math.Abs(inf-cnt) > 0 {
			t.Fatalf("series %q: +Inf bucket %v != _count %v", series, inf, cnt)
		}
	}
}

// seriesLabels normalizes a label-set string to identify one histogram
// series across its _bucket/_sum/_count lines: the le pair is dropped and
// leftover separators cleaned up, so `{le="+Inf"}` and “ (the matching
// _count line) map to the same key.
func seriesLabels(labels string) string {
	if labels == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for _, pair := range splitLabelPairs(inner) {
		if !strings.HasPrefix(pair, `le="`) {
			kept = append(kept, pair)
		}
	}
	if len(kept) == 0 {
		return ""
	}
	return "{" + strings.Join(kept, ",") + "}"
}

// splitLabelPairs splits `a="x",b="y"` on commas outside quoted values.
func splitLabelPairs(s string) []string {
	var out []string
	inQuote, escaped, start := false, false, 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case escaped:
			escaped = false
		case c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// leOf extracts the le label value from a label-set string like
// `{phase="x",le="+Inf"}`.
func leOf(labels string) string {
	const key = `le="`
	i := strings.Index(labels, key)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(key):]
	j := strings.Index(rest, `"`)
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// ObserveAll is a cheaper way to make the same observations, never a
// different histogram: for a fixed sequence of batches, /metrics must be
// byte-identical to what per-value Observe calls produce — count, sum
// (accumulated in the same order, so the same float) and every bucket.
func TestObserveAllMatchesObserveOnMetricsText(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var batches [][]float64
	for b := 0; b < 40; b++ {
		vs := make([]float64, rng.Intn(300))
		for i := range vs {
			switch rng.Intn(3) {
			case 0: // row ages: integers over the whole bucket ladder
				vs[i] = float64(rng.Intn(1 << 21))
			case 1: // values whose sum depends on the order of addition
				vs[i] = rng.ExpFloat64() * 1e3
			default: // exactly on a bound
				vs[i] = []float64{64, 1024, 1048576}[rng.Intn(3)]
			}
		}
		batches = append(batches, vs)
	}
	bounds := []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
	text := func(observe func(h *Histogram, vs []float64)) string {
		reg := NewRegistry()
		reg.SetHelp("age_rows", "test")
		narrow := reg.Histogram("age_rows", bounds)
		wide := reg.Histogram("age_wide", wideBounds()) // more buckets than ObserveAll's stack array
		for _, vs := range batches {
			observe(narrow, vs)
			observe(wide, vs)
		}
		var buf bytes.Buffer
		if err := reg.WriteExposition(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one := text(func(h *Histogram, vs []float64) {
		for _, v := range vs {
			h.Observe(v)
		}
	})
	bulk := text(func(h *Histogram, vs []float64) { h.ObserveAll(vs) })
	if one != bulk {
		t.Fatalf("/metrics text differs between Observe and ObserveAll:\n--- Observe\n%s\n--- ObserveAll\n%s", one, bulk)
	}
	if !strings.Contains(one, "age_rows_count") {
		t.Fatalf("exposition lacks the histogram:\n%s", one)
	}
}

func wideBounds() []float64 {
	var b []float64
	for v := 1.0; len(b) < 40; v *= 1.5 {
		b = append(b, v)
	}
	return b
}

// Concurrent bulk and single observers lose nothing: integer values keep
// the float sum exact whatever the interleaving.
func TestObserveAllConcurrent(t *testing.T) {
	h := NewHistogram([]float64{10, 100})
	batch := []float64{1, 20, 300, 4}
	const workers, rounds = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				h.ObserveAll(batch)
				h.Observe(7)
			}
		}()
	}
	wg.Wait()
	if got, want := h.Count(), uint64(workers*rounds*(len(batch)+1)); got != want {
		t.Fatalf("count %d, want %d", got, want)
	}
	if got, want := h.Sum(), float64(workers*rounds*(325+7)); got != want {
		t.Fatalf("sum %v, want %v", got, want)
	}
}
