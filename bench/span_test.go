package main

import (
	"testing"
)

// sp builds a closed span for the table tests.
func sp(name string, start, end int64, parent, lane int32) span {
	return span{name: name, start: start, end: end, parent: parent, lane: lane}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		sp("parent", 0, 100, -1, 0),
		sp("a", 10, 30, 0, 1),          // overlaps b: together they cover [10,50]
		sp("b", 20, 50, 0, 2),          //
		sp("c", 60, 70, 0, 0),          // disjoint: [60,70]
		sp("grandchild", 12, 28, 1, 0), // inside a: changes a's self time only
		sp("spill", 90, 130, 0, 0),     // clipped to the parent's end: [90,100]
		sp("leaf", 200, 260, -1, 0),    // no children
	}
	self := selfTimes(spans)
	want := []int64{
		100 - (40 + 10 + 10),
		20 - 16,
		30,
		10,
		16,
		40,
		60,
	}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of %q = %d, want %d", spans[i].name, self[i], w)
		}
	}
}

func TestSelfTimeOfFullyCoveredSpanIsZero(t *testing.T) {
	spans := []span{
		sp("parent", 0, 50, -1, 0),
		sp("left", 0, 30, 0, 1),
		sp("right", 25, 50, 0, 2),
		sp("inside-left", 5, 10, 0, 3), // already covered by left
	}
	if got := selfTimes(spans)[0]; got != 0 {
		t.Errorf("self time = %d, want 0", got)
	}
}

func TestCoverageCountsOnlyTopLevelDriverSpans(t *testing.T) {
	spans := []span{
		sp("op-a", 0, 40, -1, 0),
		sp("child", 5, 35, 0, 0),
		sp("op-b", 50, 100, -1, 0),
		sp("orphan-server", 40, 50, -1, 1), // another goroutine: not the driver's time
		sp("outside", 100, 150, -1, 0),     // after the wall interval: clipped away
	}
	if got, want := coverage(spans, 0, 100), 0.9; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if got := coverage(spans, 10, 10); got != 0 {
		t.Errorf("coverage of an empty interval = %v, want 0", got)
	}
}

func TestSlowestChildPicksTheLongestShardPerCall(t *testing.T) {
	spans := []span{
		sp("client", 0, 100, -1, 0),
		sp("server", 10, 30, 0, 1),
		sp("server", 10, 70, 0, 2),
		sp("client", 100, 200, -1, 0),
		sp("other", 110, 190, 3, 1),
		sp("client", 200, 300, -1, 0),
		sp("server", 210, 220, 5, 1),
	}
	got := slowestChild(spans, "client", "server")
	want := []int64{60, 0, 10}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("call %d: slowest child %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRecorderParentsServerSpansOnTheOpenDriverSpan(t *testing.T) {
	r := newRecorder()
	r.setOp(7)
	a := r.enter("a")
	b := r.enter("b")
	c := r.serverEnter("c", 1)
	r.serverLeave(c)
	r.leave(b)
	d := r.serverEnter("d", 2)
	r.serverLeave(d)
	r.leave(a)
	e := r.enter("e")
	r.leave(e)
	open := r.enter("never-closed")
	_ = open

	spans := r.snapshot(0)
	if len(spans) != 5 {
		t.Fatalf("snapshot has %d spans, want the 5 closed ones", len(spans))
	}
	parents := map[string]string{"a": "", "b": "a", "c": "b", "d": "a", "e": ""}
	for _, s := range spans {
		got := ""
		if s.parent >= 0 {
			got = spans[s.parent].name
		}
		if got != parents[s.name] {
			t.Errorf("parent of %q = %q, want %q", s.name, got, parents[s.name])
		}
		if s.op != 7 {
			t.Errorf("span %q carries op %d, want 7", s.name, s.op)
		}
	}

	// A new op starts with no driver span open, even if the last op left
	// one behind.
	r.setOp(8)
	f := r.enter("f")
	r.leave(f)
	for _, s := range r.snapshot(0) {
		if s.name == "f" && s.parent != -1 {
			t.Errorf("span opened after setOp has parent %d, want none", s.parent)
		}
	}
}

func TestSnapshotDropsSpansBeforeTheCut(t *testing.T) {
	r := newRecorder()
	early := r.enter("warm-up")
	r.leave(early)
	cut := r.now()
	late := r.enter("timed")
	kid := r.enter("kid")
	r.leave(kid)
	r.leave(late)
	spans := r.snapshot(cut)
	if len(spans) != 2 || spans[0].name != "timed" || spans[1].name != "kid" {
		t.Fatalf("snapshot after the cut = %+v, want timed and kid", spans)
	}
	if spans[0].parent != -1 || spans[1].parent != 0 {
		t.Errorf("parents after re-indexing = %d, %d; want -1, 0", spans[0].parent, spans[1].parent)
	}
}

func TestUntracedPathRecordsAndAllocatesNothing(t *testing.T) {
	var r *recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.setOp(3)
		id := r.enter("op")
		sid := r.serverEnter("server", 1)
		r.serverLeave(sid)
		r.leave(id)
	})
	if allocs != 0 {
		t.Errorf("nil recorder allocates %v times per op, want 0", allocs)
	}
	if spans := r.snapshot(0); spans != nil {
		t.Errorf("nil recorder returned %d spans", len(spans))
	}
	if id := r.enter("x"); id != -1 {
		t.Errorf("nil recorder handed out span id %d", id)
	}
}
