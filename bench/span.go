package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"marlperf/internal/trace"
)

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch; parent is an index into the recorder's span list or
// -1 for a top-level span; op is the benchmark op the span belongs to.
type span struct {
	name   string
	start  int64
	end    int64
	parent int32
	op     int32
	lane   int32 // Chrome-trace tid: 0 is the driver goroutine, 1+ are server handlers
}

// recorder is the benchmark's in-memory span store. It is opened only from
// files in this directory, around calls into each layer and inside the
// interface wrappers the benchmark hands to those layers. A nil *recorder
// is the untraced path: every method returns at once, records nothing and
// allocates nothing.
//
// The workloads are lockstep by construction — one driver goroutine, one
// client operation in flight — so the recorder keeps a single "innermost
// open driver span" instead of carrying a context through the program:
// enter/leave maintain it on the driver goroutine, and a server-side
// wrapper running on another goroutine parents its span on whatever the
// driver has open at that moment.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	active atomic.Int32 // innermost open driver span, -1 when none
	op     atomic.Int32 // op id stamped on new spans
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
	r.active.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// setOp starts op i: subsequent spans carry its id, and no driver span is
// open (an op that failed half-way may have left one behind).
func (r *recorder) setOp(i int) {
	if r == nil {
		return
	}
	r.op.Store(int32(i))
	r.active.Store(-1)
}

func (r *recorder) open(name string, parent, lane int32) int32 {
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, start: r.now(), end: -1, parent: parent, op: r.op.Load(), lane: lane})
	r.mu.Unlock()
	return id
}

func (r *recorder) close(id int32) int32 {
	r.mu.Lock()
	r.spans[id].end = r.now()
	parent := r.spans[id].parent
	r.mu.Unlock()
	return parent
}

// enter opens a span on the driver goroutine as a child of the innermost
// open driver span and makes it the innermost one.
func (r *recorder) enter(name string) int32 {
	if r == nil {
		return -1
	}
	id := r.open(name, r.active.Load(), 0)
	r.active.Store(id)
	return id
}

// leave closes a span opened by enter and restores its parent as the
// innermost open driver span.
func (r *recorder) leave(id int32) {
	if r == nil {
		return
	}
	r.active.Store(r.close(id))
}

// serverEnter opens a span from a server-side wrapper (any goroutine),
// caused by the driver span open at this moment. It does not change which
// span is innermost on the driver.
func (r *recorder) serverEnter(name string, lane int32) int32 {
	if r == nil {
		return -1
	}
	return r.open(name, r.active.Load(), lane)
}

func (r *recorder) serverLeave(id int32) {
	if r == nil {
		return
	}
	r.close(id)
}

// snapshot returns the closed spans recorded at or after from (a value of
// now()), re-indexed so parents still point inside the returned slice.
func (r *recorder) snapshot(from int64) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	remap := make(map[int32]int32, len(r.spans))
	var out []span
	for i, s := range r.spans {
		if s.end < 0 || s.start < from {
			continue
		}
		remap[int32(i)] = int32(len(out))
		out = append(out, s)
	}
	for i := range out {
		if p, ok := remap[out[i].parent]; ok {
			out[i].parent = p
		} else {
			out[i].parent = -1
		}
	}
	return out
}

// selfTimes returns, for every span, its duration minus the part of that
// interval covered by the union of its direct children (children are
// clipped to the parent, and overlapping children — two shard handlers
// serving one fan-out — are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		self[i] -= unionLen(spans, kids, s.start, s.end)
	}
	return self
}

// unionLen is the total length of the union of the given spans (sorted by
// start), clipped to [lo, hi].
func unionLen(spans []span, ids []int32, lo, hi int64) int64 {
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	for _, id := range ids {
		a, b := spans[id].start, spans[id].end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b <= a {
			continue
		}
		if curHi < curLo || a > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return covered
}

// coverage is the share of the wall interval [from, to] covered by
// top-level spans. The per-layer table only explains the end-to-end
// numbers when this is close to 1.
func coverage(spans []span, from, to int64) float64 {
	if to <= from {
		return 0
	}
	var top []int32
	for i, s := range spans {
		if s.parent < 0 && s.lane == 0 {
			top = append(top, int32(i))
		}
	}
	sort.Slice(top, func(a, b int) bool { return spans[top[a]].start < spans[top[b]].start })
	return float64(unionLen(spans, top, from, to)) / float64(to-from)
}

// spanStats summarises all spans of one name.
type spanStats struct {
	count   int
	totalNs int64
	selfNs  int64
}

func statsByName(spans []span, self []int64) map[string]*spanStats {
	out := make(map[string]*spanStats)
	for i, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		st.count++
		st.totalNs += s.end - s.start
		st.selfNs += self[i]
	}
	return out
}

// slowestChild returns, for every span named parentName, the duration of
// its longest direct child named childName (0 when it has none). A client
// call that fans out to several shards waits for the slowest one.
func slowestChild(spans []span, parentName, childName string) []int64 {
	longest := make(map[int32]int64)
	for _, s := range spans {
		if s.name == childName && s.parent >= 0 && spans[s.parent].name == parentName {
			if d := s.end - s.start; d > longest[s.parent] {
				longest[s.parent] = d
			}
		}
	}
	var out []int64
	for i, s := range spans {
		if s.name == parentName {
			out = append(out, longest[int32(i)])
		}
	}
	return out
}

// maxTraceSpans caps the Chrome-trace file (about 200 bytes per span); the
// per-layer table is always computed from every span.
const maxTraceSpans = 50_000

// writeChromeTrace writes the spans in the Trace Event Format that Perfetto,
// chrome://tracing and cmd/marl-trace read. The op id stands in for the
// trace id: all spans of one op share it.
func writeChromeTrace(path, proc string, spans []span) error {
	if len(spans) > maxTraceSpans {
		spans = spans[:maxTraceSpans]
	}
	events := make([]trace.ChromeEvent, 0, len(spans)+1)
	events = append(events, trace.ChromeEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": proc}})
	for i, s := range spans {
		parent := uint64(0)
		if s.parent >= 0 {
			parent = uint64(s.parent) + 1
		}
		events = append(events, trace.ChromeEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: int(s.lane),
			Args: map[string]any{
				trace.ArgTrace:  trace.FormatID(uint64(s.op) + 1),
				trace.ArgSpan:   trace.FormatID(uint64(i) + 1),
				trace.ArgParent: trace.FormatID(parent),
				trace.ArgProc:   proc,
			},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(trace.ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanData is the traced section's spans with their derived figures.
type spanData struct {
	spans  []span
	self   []int64
	byName map[string]*spanStats
}

func newSpanData(spans []span) *spanData {
	self := selfTimes(spans)
	return &spanData{spans: spans, self: self, byName: statsByName(spans, self)}
}

func (d *spanData) get(name string) *spanStats {
	if st := d.byName[name]; st != nil {
		return st
	}
	return &spanStats{}
}

// durations returns the duration in ns of every span of one name.
func (d *spanData) durations(name string) []float64 {
	var out []float64
	for _, s := range d.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// meanMs is the mean duration of the spans of one name.
func (d *spanData) meanMs(name string) float64 {
	st := d.get(name)
	if st.count == 0 {
		return 0
	}
	return ms(float64(st.totalNs)) / float64(st.count)
}

// selfMeanMs is the mean self time of the spans of one name.
func (d *spanData) selfMeanMs(name string) float64 {
	st := d.get(name)
	if st.count == 0 {
		return 0
	}
	return ms(float64(st.selfNs)) / float64(st.count)
}

// printSelfTable prints, per span name, its count and its share of the
// traced wall time as self time — the attribution the per-layer metrics
// summarise.
func (d *spanData) printSelfTable(w io.Writer, s *section) {
	names := make([]string, 0, len(d.byName))
	for n := range d.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	wall := float64(s.endNs - s.startNs)
	fmt.Fprintf(w, "%-28s %9s %12s %12s %10s\n", "span", "count", "mean ms", "self ms", "self/wall")
	for _, n := range names {
		st := d.byName[n]
		fmt.Fprintf(w, "%-28s %9d %12.4f %12.4f %10.4f\n", n, st.count, d.meanMs(n), d.selfMeanMs(n), float64(st.selfNs)/wall)
	}
}
