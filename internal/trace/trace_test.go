package trace

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestDeriveTraceIDDeterministicAndDistinct(t *testing.T) {
	a := DeriveTraceID(42, KindUpdate, 7)
	if a != DeriveTraceID(42, KindUpdate, 7) {
		t.Fatal("DeriveTraceID is not a pure function")
	}
	if a == 0 {
		t.Fatal("trace ID must never be 0")
	}
	seen := map[uint64]string{}
	for _, kind := range []uint64{KindUpdate, KindStep, KindAppend} {
		for idx := uint64(0); idx < 1000; idx++ {
			for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
				id := DeriveTraceID(seed, kind, idx)
				key := fmt.Sprintf("%d/%d/%d", seed, kind, idx)
				if prev, dup := seen[id]; dup {
					t.Fatalf("collision: %s and %s both map to %016x", prev, key, id)
				}
				seen[id] = key
			}
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	for _, c := range []Context{
		{TraceID: 1, SpanID: 0},
		{TraceID: 0xDEADBEEFCAFEF00D, SpanID: 0x0123456789ABCDEF},
		{TraceID: ^uint64(0), SpanID: ^uint64(0)},
	} {
		h := FormatHeader(c)
		got, ok := ParseHeader(h)
		if !ok || got != c {
			t.Fatalf("round trip %+v -> %q -> %+v ok=%v", c, h, got, ok)
		}
	}
	for _, bad := range []string{
		"", "x", "0000000000000001", // too short
		"000000000000000100000000000000002",  // no dash
		"0000000000000001-000000000000000g",  // bad digit
		"0000000000000000-0000000000000001",  // zero trace ID
		"0000000000000001-00000000000000012", // too long
	} {
		if _, ok := ParseHeader(bad); ok {
			t.Fatalf("ParseHeader(%q) accepted malformed input", bad)
		}
	}
	// Uppercase hex is accepted on parse (proxies may canonicalize).
	if c, ok := ParseHeader("00000000000000AB-00000000000000CD"); !ok || c.TraceID != 0xAB || c.SpanID != 0xCD {
		t.Fatalf("uppercase parse failed: %+v ok=%v", c, ok)
	}
}

func TestDisabledPathZeroAlloc(t *testing.T) {
	tr := New("test", 64)
	ctx := Context{TraceID: 1, SpanID: 2}
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			t.Fatal("tracer unexpectedly enabled")
		}
		sp := tr.StartSpan(ctx, "x")
		sp.EndArg("rows", 1)
		tr.SetActive(ctx)
		_ = tr.Active()
		_ = tr.Sampled(3)
		root := tr.StartTrace(9, "y")
		root.EndArg("", 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocated %.1f times per op, want 0", allocs)
	}
	var nilTr *Tracer
	allocs = testing.AllocsPerRun(1000, func() {
		sp := nilTr.StartSpan(ctx, "x")
		sp.EndArg("", 0)
		_ = nilTr.Active()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer path allocated %.1f times per op, want 0", allocs)
	}
	if tr.Len() != 0 {
		t.Fatalf("disabled tracer recorded %d spans", tr.Len())
	}
}

func TestSpanRecordingAndHierarchy(t *testing.T) {
	tr := New("learner", 64)
	tr.SetEnabled(true)
	root := tr.StartTrace(DeriveTraceID(1, KindUpdate, 0), "update")
	if !root.Valid() {
		t.Fatal("root span invalid while enabled")
	}
	child := tr.StartSpan(root.Context(), "mini-batch-sampling")
	child.EndArg("rows", 1024)
	root.EndArg("update", 0)

	recs := tr.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// Ring is append-ordered: child ended first.
	c, r := recs[0], recs[1]
	if c.Name != "mini-batch-sampling" || r.Name != "update" {
		t.Fatalf("unexpected record order: %q, %q", c.Name, r.Name)
	}
	if c.TraceID != r.TraceID {
		t.Fatal("child not in root's trace")
	}
	if c.ParentID != r.SpanID {
		t.Fatal("child's parent is not the root span")
	}
	if r.ParentID != 0 {
		t.Fatal("root span should have no parent")
	}
	if c.ArgName != "rows" || c.Arg != 1024 {
		t.Fatalf("child arg = %q %d", c.ArgName, c.Arg)
	}
	if c.Proc != "learner" {
		t.Fatalf("proc = %q", c.Proc)
	}
	if c.Dur < 0 || r.Dur < 0 {
		t.Fatal("negative duration")
	}

	// Spans parented on an invalid context never record — this is how
	// unsampled updates suppress their whole subtree.
	dead := tr.StartSpan(Context{}, "x")
	dead.EndArg("", 0)
	if tr.Len() != 2 {
		t.Fatal("span with invalid parent recorded")
	}
}

func TestRingWrapOldestFirst(t *testing.T) {
	tr := New("p", 4)
	tr.SetEnabled(true)
	for i := 0; i < 10; i++ {
		sp := tr.StartTrace(uint64(i+1), "s")
		sp.EndArg("i", int64(i))
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("len = %d, want 4", len(recs))
	}
	for j, r := range recs {
		if want := int64(6 + j); r.Arg != want {
			t.Fatalf("recs[%d].Arg = %d, want %d (oldest-first order)", j, r.Arg, want)
		}
	}
}

func TestSampled(t *testing.T) {
	tr := New("p", 4)
	if tr.Sampled(0) {
		t.Fatal("disabled tracer sampled")
	}
	tr.SetEnabled(true)
	if !tr.Sampled(0) || !tr.Sampled(1) {
		t.Fatal("sample-every 0 should admit everything")
	}
	tr.SetSampleEvery(4)
	got := []bool{tr.Sampled(0), tr.Sampled(1), tr.Sampled(4), tr.Sampled(6), tr.Sampled(8)}
	want := []bool{true, false, true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sampled pattern = %v, want %v", got, want)
		}
	}
}

func TestActiveContextHandoff(t *testing.T) {
	tr := New("p", 4)
	ctx := Context{TraceID: 5, SpanID: 6}
	tr.SetActive(ctx)
	if tr.Active().Valid() {
		t.Fatal("disabled tracer should not publish an active context")
	}
	tr.SetEnabled(true)
	tr.SetActive(ctx)
	if got := tr.Active(); got != ctx {
		t.Fatalf("Active = %+v, want %+v", got, ctx)
	}
	tr.ClearActive()
	if tr.Active().Valid() {
		t.Fatal("ClearActive did not clear")
	}
}

func TestConcurrentEmissionRaceFree(t *testing.T) {
	tr := New("p", 128)
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.StartTrace(DeriveTraceID(uint64(g), KindStep, uint64(i)), "s")
				tr.SetActive(sp.Context())
				_ = tr.Active()
				sp.EndArg("", 0)
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 128 || tr.Dropped() != 400-128 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	// Span IDs must be unique within the process.
	seen := map[uint64]bool{}
	for _, r := range tr.Snapshot() {
		if seen[r.SpanID] {
			t.Fatalf("duplicate span ID %016x", r.SpanID)
		}
		seen[r.SpanID] = true
	}
}

func TestChromeExportRoundTrip(t *testing.T) {
	tr := New("replayd", 16)
	tr.SetEnabled(true)
	sp := tr.StartSpanAt(Context{TraceID: 0xAA, SpanID: 0xBB}, "ingest", time.Now().Add(-time.Millisecond))
	sp.EndArg("rows", 100)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	ct, err := ParseChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2 (metadata + span)", len(ct.TraceEvents))
	}
	meta, ev := ct.TraceEvents[0], ct.TraceEvents[1]
	if meta.Ph != "M" || meta.Name != "process_name" || meta.Args["name"] != "replayd" {
		t.Fatalf("bad metadata event: %+v", meta)
	}
	if ev.Ph != "X" || ev.Name != "ingest" {
		t.Fatalf("bad span event: %+v", ev)
	}
	if ev.Dur < 900 { // ended ≥1ms after start → ≥900µs with slop
		t.Fatalf("Dur = %v µs, want ≥900", ev.Dur)
	}
	tid, ok := ParseID(ev.Args[ArgTrace].(string))
	if !ok || tid != 0xAA {
		t.Fatalf("trace arg = %v", ev.Args[ArgTrace])
	}
	pid, ok := ParseID(ev.Args[ArgParent].(string))
	if !ok || pid != 0xBB {
		t.Fatalf("parent arg = %v", ev.Args[ArgParent])
	}
	if ev.Args[ArgProc] != "replayd" {
		t.Fatalf("proc arg = %v", ev.Args[ArgProc])
	}
	if rows, ok := ev.Args["rows"].(float64); !ok || rows != 100 {
		t.Fatalf("rows arg = %v", ev.Args["rows"])
	}
}

func TestFormatParseID(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xDEADBEEF, ^uint64(0)} {
		s := FormatID(v)
		got, ok := ParseID(s)
		if !ok || got != v {
			t.Fatalf("ID round trip %d -> %q -> %d ok=%v", v, s, got, ok)
		}
	}
	if _, ok := ParseID("nope"); ok {
		t.Fatal("ParseID accepted garbage")
	}
}

func BenchmarkDisabledStartSpanEnd(b *testing.B) {
	tr := New("bench", 64)
	ctx := Context{TraceID: 1, SpanID: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(ctx, "x")
		sp.EndArg("", 0)
	}
}

func BenchmarkEnabledStartSpanEnd(b *testing.B) {
	tr := New("bench", 1<<16)
	tr.SetEnabled(true)
	ctx := Context{TraceID: 1, SpanID: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(ctx, "x")
		sp.EndArg("", 0)
	}
}
