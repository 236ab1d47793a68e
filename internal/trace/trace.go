// Package trace is a low-overhead span tracer for the distributed
// actor→replayd→learner→policyd loop.
//
// Design constraints, in order:
//
//  1. Off means free. Tracing is disabled by default; every hot-path
//     entry point (StartSpan, RecordSpan, End, Active, SetActive)
//     collapses to a single atomic load and performs zero heap
//     allocations when the tracer is disabled or nil. Span is a value
//     type so the compiler keeps the disabled path entirely on the stack.
//  2. Deterministic trace identity. A trace ID is a pure function of
//     (run seed, kind, index) — learner update u of a seeded run hashes
//     to the same trace ID on every machine, every run. That is what
//     lets marl-trace merge /tracez captures from five processes
//     without any clock coordination, and what makes trace output
//     diffable across reruns.
//  3. Never perturb training. The tracer draws no RNG, writes no bytes
//     into any wire frame (context rides HTTP headers only), and the
//     record ring is fixed-size so enabling tracing cannot change
//     allocation behaviour of the code under test beyond the ring
//     itself.
//
// Records land in a fixed-capacity ring guarded by a mutex (span
// emission is a handful of events per update/step, so the lock is not a
// throughput concern; it keeps /tracez snapshots race-detector clean).
// When the ring wraps, the oldest records are overwritten and Dropped
// counts them.
package trace

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// HeaderName carries trace context across processes. The value is
// "<16-hex traceID>-<16-hex spanID>"; see FormatHeader/ParseHeader.
const HeaderName = "X-Marl-Trace"

// Trace-ID kinds: the "what started this trace" namespace fed into
// DeriveTraceID so updates, rollout steps and append batches can never
// collide even at equal indices.
const (
	KindUpdate uint64 = 1 // learner update u (root: the per-update critical path)
	KindStep   uint64 = 2 // rollout engine step s on one actor
	KindAppend uint64 = 3 // experience append batch b from one actor
)

// Context identifies a position in a trace: the trace it belongs to and
// the span that is the current parent. The zero Context is "not
// tracing" everywhere.
type Context struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether c carries a real trace.
func (c Context) Valid() bool { return c.TraceID != 0 }

// Record is one completed span. Fixed-size (strings are static names,
// never built per-span) so a ring slot never grows.
type Record struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	Name     string // static span name, e.g. "mini-batch-sampling"
	Proc     string // emitting process role, e.g. "learner"
	Start    int64  // wall clock, unix nanoseconds
	Dur      int64  // nanoseconds
	ArgName  string // optional numeric payload label, e.g. "rows"
	Arg      int64
}

// Tracer records spans for one process. All methods are safe for
// concurrent use and safe on a nil receiver (nil behaves as disabled),
// so callers thread a *Tracer without guarding every call site.
type Tracer struct {
	proc    string
	enabled atomic.Bool
	sample  atomic.Uint64
	seq     atomic.Uint64
	active  atomic.Pointer[Context]

	mu    sync.Mutex
	ring  []Record
	total uint64 // records ever appended; ring holds the last len(ring)
}

// DefaultCapacity bounds the record ring when the caller passes 0.
const DefaultCapacity = 65536

// New returns a disabled tracer for a process named proc ("learner",
// "replayd", "policyd", "actor"). capacity ≤ 0 selects
// DefaultCapacity.
func New(proc string, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{proc: proc, ring: make([]Record, 0, capacity)}
}

// Proc returns the process role this tracer stamps on records.
func (t *Tracer) Proc() string {
	if t == nil {
		return ""
	}
	return t.proc
}

// SetEnabled flips span recording. Off is the zero state.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether spans are being recorded. This is the one
// load every disabled-path call performs.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetSampleEvery makes Sampled admit every nth index; n ≤ 1 admits all.
func (t *Tracer) SetSampleEvery(n uint64) {
	if t != nil {
		t.sample.Store(n)
	}
}

// Sampled reports whether the unit at index (an update count, a step
// count) should emit spans this run.
func (t *Tracer) Sampled(index uint64) bool {
	if !t.Enabled() {
		return false
	}
	n := t.sample.Load()
	return n <= 1 || index%n == 0
}

// SetActive publishes ctx as the process-wide current trace position.
// Cooperating subsystems that cannot thread a Context through their
// interfaces (the experience client under replay.TransitionSource, the
// policy publisher on its own goroutine) read it back with Active.
// No-op when disabled, so the hot path never allocates.
func (t *Tracer) SetActive(ctx Context) {
	if !t.Enabled() {
		return
	}
	c := ctx
	t.active.Store(&c)
}

// ClearActive drops the published context.
func (t *Tracer) ClearActive() {
	if t == nil {
		return
	}
	t.active.Store(nil)
}

// Active returns the last published context, or the zero Context.
func (t *Tracer) Active() Context {
	if !t.Enabled() {
		return Context{}
	}
	if c := t.active.Load(); c != nil {
		return *c
	}
	return Context{}
}

// StartTrace opens a root span (no parent) under the given trace ID,
// normally one produced by DeriveTraceID. Returns the zero Span when
// disabled or traceID is 0.
func (t *Tracer) StartTrace(traceID uint64, name string) Span {
	if !t.Enabled() || traceID == 0 {
		return Span{}
	}
	return t.startAt(Context{TraceID: traceID}, name, time.Now())
}

// StartSpan opens a child span under parent. An invalid parent returns
// the zero Span, which makes "only record if this unit is traced"
// gating automatic: descendants of an unsampled root all no-op.
func (t *Tracer) StartSpan(parent Context, name string) Span {
	if !t.Enabled() || !parent.Valid() {
		return Span{}
	}
	return t.startAt(parent, name, time.Now())
}

// StartSpanAt is StartSpan with an explicit start time, for callers
// that only learn the parent after the work ran (a long-poll response
// carrying the publisher's context).
func (t *Tracer) StartSpanAt(parent Context, name string, start time.Time) Span {
	if !t.Enabled() || !parent.Valid() {
		return Span{}
	}
	return t.startAt(parent, name, start)
}

func (t *Tracer) startAt(parent Context, name string, start time.Time) Span {
	id := mix64(parent.TraceID ^ t.seq.Add(1)*0x9E3779B97F4A7C15)
	if id == 0 {
		id = 1
	}
	return Span{
		t:      t,
		ctx:    Context{TraceID: parent.TraceID, SpanID: id},
		parent: parent.SpanID,
		name:   name,
		start:  start.UnixNano(),
	}
}

// Span is an open span handle. The zero Span is inert: End and EndArg
// on it do nothing, so callers never branch on "am I tracing".
type Span struct {
	t      *Tracer
	ctx    Context
	parent uint64
	name   string
	start  int64
}

// Valid reports whether the span will record on End.
func (s Span) Valid() bool { return s.t != nil }

// Context returns the span's own position, for propagating to children
// (including across processes via FormatHeader).
func (s Span) Context() Context { return s.ctx }

// EndArg closes the span and appends its record, with one numeric payload
// (e.g. "rows", n; "" and 0 for none).
func (s Span) EndArg(argName string, arg int64) {
	if s.t == nil {
		return
	}
	s.record(time.Now().UnixNano()-s.start, argName, arg)
}

// RecordSpan records a span under parent from the caller's own two clock
// reads: it starts at start and lasts end.Sub(start), the monotonic
// duration. A profiler phase timed from the same two reads therefore holds
// the same nanoseconds as its span. An invalid parent records nothing, as
// with StartSpan.
func (t *Tracer) RecordSpan(parent Context, name string, start, end time.Time, argName string, arg int64) {
	if !t.Enabled() || !parent.Valid() {
		return
	}
	t.startAt(parent, name, start).record(int64(end.Sub(start)), argName, arg)
}

func (s Span) record(dur int64, argName string, arg int64) {
	s.t.append(Record{
		TraceID:  s.ctx.TraceID,
		SpanID:   s.ctx.SpanID,
		ParentID: s.parent,
		Name:     s.name,
		Proc:     s.t.proc,
		Start:    s.start,
		Dur:      dur,
		ArgName:  argName,
		Arg:      arg,
	})
}

func (t *Tracer) append(r Record) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, r)
	} else {
		t.ring[t.total%uint64(cap(t.ring))] = r
	}
	t.total++
	t.mu.Unlock()
}

// Len reports how many records the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Dropped reports how many records were overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= uint64(len(t.ring)) {
		return 0
	}
	return t.total - uint64(len(t.ring))
}

// Snapshot copies the retained records, oldest first.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, len(t.ring))
	if t.total > uint64(len(t.ring)) { // wrapped: start after the write cursor
		at := int(t.total % uint64(cap(t.ring)))
		out = append(out, t.ring[at:]...)
		out = append(out, t.ring[:at]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Reset discards all retained records (testing and tooling).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.total = 0
	t.mu.Unlock()
}

// DeriveTraceID maps (seed, kind, index) to a trace ID. It is a pure
// function — the same seeded run derives the same IDs everywhere —
// built from two rounds of splitmix64 finalization over the three
// inputs. Never returns 0.
func DeriveTraceID(seed, kind, index uint64) uint64 {
	id := mix64(mix64(seed^kind*0xBF58476D1CE4E5B9) ^ index*0x94D049BB133111EB)
	if id == 0 {
		id = 1
	}
	return id
}

// HashID folds an arbitrary string (an actor ID) into a uint64 seed for
// DeriveTraceID, via FNV-1a.
func HashID(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// mix64 is the splitmix64 finalizer: a fast, well-dispersed bijection
// on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// FormatHeader renders c as the X-Marl-Trace wire form:
// "<16-hex traceID>-<16-hex spanID>".
func FormatHeader(c Context) string {
	var b [33]byte
	putHex16(b[:16], c.TraceID)
	b[16] = '-'
	putHex16(b[17:], c.SpanID)
	return string(b[:])
}

// ParseHeader parses the X-Marl-Trace wire form. Returns ok=false on
// any malformed input (including an all-zero trace ID), never an error:
// an unparseable header just means "not traced".
func ParseHeader(s string) (Context, bool) {
	if len(s) != 33 || s[16] != '-' {
		return Context{}, false
	}
	tid, ok := parseHex16(s[:16])
	if !ok {
		return Context{}, false
	}
	sid, ok := parseHex16(s[17:])
	if !ok {
		return Context{}, false
	}
	c := Context{TraceID: tid, SpanID: sid}
	if !c.Valid() {
		return Context{}, false
	}
	return c, true
}

const hexDigits = "0123456789abcdef"

func putHex16(dst []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[v&0xF]
		v >>= 4
	}
}

func parseHex16(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < 16; i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}
