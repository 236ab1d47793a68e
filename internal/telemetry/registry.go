// Package telemetry is the runtime observability layer: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket latency histograms with
// quantile summaries), a Prometheus text-exposition renderer, a buffered
// crash-tolerant JSONL run-event log, and an opt-in HTTP server exposing
// /metrics, /profilez, /healthz and net/http/pprof.
//
// The paper's method is measurement — per-phase training-time breakdowns
// and counter growth — and this package makes those measurements live:
// profiler phase durations feed per-phase histograms (tail latencies, not
// just means), resilience events become counters, and every update step
// emits one machine-readable run record.
//
// All metric write paths (Counter.Add, Gauge.Set, Histogram.Observe) are
// lock-free atomics and safe for concurrent use; registration takes a
// registry lock and should happen once per metric, not per observation.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
	read atomic.Pointer[func() float64]
}

// SetFunc makes the gauge report read() from now on, called once per Value
// and per registry snapshot — for a figure the operating system keeps, which
// is cheaper to ask for at scrape time than to track. read must be safe for
// concurrent use.
func (g *Gauge) SetFunc(read func() float64) { g.read.Store(&read) }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if read := g.read.Load(); read != nil {
		return (*read)()
	}
	return math.Float64frombits(g.bits.Load())
}

// Label is one name=value metric dimension.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Registry holds all metrics of a process, keyed by name plus label set.
// Look-ups return the same metric instance for the same identity, so hot
// paths should capture the returned pointer once.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string

	// identity metadata for snapshots, keyed like the metric maps.
	meta map[string]metricMeta
}

type metricMeta struct {
	name   string
	labels []Label
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
		meta:     make(map[string]metricMeta),
	}
}

// SetHelp records the HELP text rendered for the metric family in the
// Prometheus exposition.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// metricKey canonicalizes a (name, labels) identity: labels sorted by name.
// The sorted labels are returned for snapshot metadata.
func metricKey(name string, labels []string) (string, []Label) {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: metric %q: odd label list %v (want k,v pairs)", name, labels))
	}
	ls := make([]Label, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		ls = append(ls, Label{Name: labels[i], Value: labels[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteString(name)
	for _, l := range ls {
		b.WriteByte(0)
		b.WriteString(l.Name)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String(), ls
}

// Counter returns (creating on first use) the counter with the given name
// and alternating key,value label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	key, ls := metricKey(name, labels)
	r.mu.RLock()
	c := r.counters[key]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[key]; c == nil {
		c = &Counter{}
		r.counters[key] = c
		r.meta[key] = metricMeta{name: name, labels: ls}
	}
	return c
}

// Gauge returns (creating on first use) the gauge with the given name and
// alternating key,value label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	key, ls := metricKey(name, labels)
	r.mu.RLock()
	g := r.gauges[key]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[key]; g == nil {
		g = &Gauge{}
		r.gauges[key] = g
		r.meta[key] = metricMeta{name: name, labels: ls}
	}
	return g
}

// Histogram returns (creating on first use) the histogram with the given
// name, bucket upper bounds, and alternating key,value label pairs. Bounds
// must be sorted ascending; nil selects DefaultDurationBuckets. Re-lookups
// of an existing histogram ignore bounds.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	key, ls := metricKey(name, labels)
	r.mu.RLock()
	h := r.hists[key]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[key]; h == nil {
		h = NewHistogram(bounds)
		r.hists[key] = h
		r.meta[key] = metricMeta{name: name, labels: ls}
	}
	return h
}

// CounterSnapshot is one counter series at snapshot time.
type CounterSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  uint64  `json:"value"`
}

// GaugeSnapshot is one gauge series at snapshot time.
type GaugeSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramSnapshot is one histogram series at snapshot time. Counts are
// per-bucket (not cumulative); Bounds[i] is bucket i's inclusive upper
// bound, with one final implicit +Inf bucket.
type HistogramSnapshot struct {
	Name   string    `json:"name"`
	Labels []Label   `json:"labels,omitempty"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
	P999   float64   `json:"p999"`
}

// Snapshot is a consistent-enough point-in-time view of every registered
// metric, ordered deterministically by (name, labels). Individual values
// are loaded atomically; cross-metric skew is possible while writers run.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the current value of every metric.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	var gauges []*Gauge
	r.mu.RLock()
	for key, c := range r.counters {
		m := r.meta[key]
		s.Counters = append(s.Counters, CounterSnapshot{Name: m.name, Labels: m.labels, Value: c.Value()})
	}
	for key, g := range r.gauges {
		m := r.meta[key]
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: m.name, Labels: m.labels})
		gauges = append(gauges, g)
	}
	for key, h := range r.hists {
		m := r.meta[key]
		hs := h.Snapshot()
		hs.Name, hs.Labels = m.name, m.labels
		s.Histograms = append(s.Histograms, hs)
	}
	r.mu.RUnlock()
	// Outside the lock: a gauge's SetFunc reader is the caller's code.
	for i, g := range gauges {
		s.Gauges[i].Value = g.Value()
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		return seriesLess(s.Counters[i].Name, s.Counters[i].Labels, s.Counters[j].Name, s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return seriesLess(s.Gauges[i].Name, s.Gauges[i].Labels, s.Gauges[j].Name, s.Gauges[j].Labels)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return seriesLess(s.Histograms[i].Name, s.Histograms[i].Labels, s.Histograms[j].Name, s.Histograms[j].Labels)
	})
	return s
}

func seriesLess(an string, al []Label, bn string, bl []Label) bool {
	if an != bn {
		return an < bn
	}
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i].Name != bl[i].Name {
			return al[i].Name < bl[i].Name
		}
		if al[i].Value != bl[i].Value {
			return al[i].Value < bl[i].Value
		}
	}
	return len(al) < len(bl)
}

// helpFor returns the registered HELP text for a family, if any.
func (r *Registry) helpFor(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.help[name]
}
