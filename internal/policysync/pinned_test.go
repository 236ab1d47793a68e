package policysync

import (
	"context"
	"net/http"
	"testing"
)

// TestStorePreviousRetention pins the two-deep window: each publish moves
// the displaced snapshot into the previous slot, Pinned answers for exactly
// the last two versions, and everything older is gone.
func TestStorePreviousRetention(t *testing.T) {
	s := NewStore(nil)
	if pv, _, pf := s.Previous(); pv != 0 || pf != nil {
		t.Fatalf("fresh store previous: version %d frame %v", pv, pf)
	}
	if _, _, _, ok := s.Pinned(1); ok {
		t.Fatal("fresh store pinned version 1")
	}

	netsA := testNets(t, 10, 2)
	netsB := testNets(t, 11, 2)
	netsC := testNets(t, 12, 2)
	publishNets(t, s, 100, netsA)
	// One publish: no previous yet, pinned(1) hits the head.
	if pv, _, _ := s.Previous(); pv != 0 {
		t.Fatalf("previous after one publish: version %d, want 0", pv)
	}
	if up, frame, _, ok := s.Pinned(1); !ok || up != 100 || frame == nil {
		t.Fatalf("pinned(1): updates %d ok %v", up, ok)
	}

	publishNets(t, s, 200, netsB)
	publishNets(t, s, 300, netsC)

	// Three publishes: head is v3, previous is v2, v1 is evicted.
	pv, pu, pf := s.Previous()
	if pv != 2 || pu != 200 || pf == nil {
		t.Fatalf("previous: version %d updates %d", pv, pu)
	}
	snap, err := DecodeSnapshot(pf)
	if err != nil {
		t.Fatal(err)
	}
	sameParams(t, netsB[0], snap.Agents[0])

	if _, _, _, ok := s.Pinned(1); ok {
		t.Fatal("version 1 still pinned after two newer publishes")
	}
	if up, _, _, ok := s.Pinned(2); !ok || up != 200 {
		t.Fatalf("pinned(2): updates %d ok %v", up, ok)
	}
	if up, _, _, ok := s.Pinned(3); !ok || up != 300 {
		t.Fatalf("pinned(3): updates %d ok %v", up, ok)
	}
	if _, _, _, ok := s.Pinned(0); ok {
		t.Fatal("pinned(0) answered ok")
	}
}

// TestServerPinnedFetch exercises GET /v1/policy?version=N end to end: both
// retained versions decode to the right weights, evicted and future versions
// answer 404 (the client maps that to nil,nil), and garbage is a 400.
func TestServerPinnedFetch(t *testing.T) {
	_, ts := newTestServer(t)
	c := fastClient(ts.URL)

	netsA := testNets(t, 20, 2)
	netsB := testNets(t, 21, 2)
	netsC := testNets(t, 22, 2)
	if _, err := c.PublishNetworks(10, netsA); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PublishNetworks(20, netsB); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PublishNetworks(30, netsC); err != nil {
		t.Fatal(err)
	}

	snap, err := c.FetchVersion(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Version != 2 || snap.Updates != 20 {
		t.Fatalf("pinned fetch v2: %+v", snap)
	}
	sameParams(t, netsB[1], snap.Agents[1])

	snap, err = c.FetchVersion(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Version != 3 || snap.Updates != 30 {
		t.Fatalf("pinned fetch v3: %+v", snap)
	}
	sameParams(t, netsC[0], snap.Agents[0])

	// Evicted and never-published versions: not retained, not an error.
	for _, v := range []uint64{1, 9} {
		snap, err := c.FetchVersion(context.Background(), v)
		if err != nil || snap != nil {
			t.Fatalf("fetch version %d: snap %v err %v", v, snap, err)
		}
	}

	// Malformed version strings are a client error, not a silent latest.
	resp, err := http.Get(ts.URL + PathPolicy + "?version=zero")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad version answered %d, want 400", resp.StatusCode)
	}
}
