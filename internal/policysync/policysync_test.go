package policysync

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marlperf/internal/nn"
	"marlperf/internal/trace"
)

func testNets(t testing.TB, seed int64, n int) []*nn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nets := make([]*nn.Network, n)
	for i := range nets {
		nets[i] = nn.NewMLP(rng, 8, 16, 16, 5)
	}
	return nets
}

func sameParams(t *testing.T, a, b *nn.Network) {
	t.Helper()
	ap, bp := a.Params(), b.Params()
	if len(ap) != len(bp) {
		t.Fatalf("param tensor count %d vs %d", len(ap), len(bp))
	}
	for i := range ap {
		if len(ap[i].Data) != len(bp[i].Data) {
			t.Fatalf("param %d length %d vs %d", i, len(ap[i].Data), len(bp[i].Data))
		}
		for j := range ap[i].Data {
			if ap[i].Data[j] != bp[i].Data[j] {
				t.Fatalf("param %d[%d]: %v vs %v", i, j, ap[i].Data[j], bp[i].Data[j])
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	nets := testNets(t, 1, 3)
	frame, err := EncodeSnapshot(nil, 42, nets)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(frame)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Updates != 42 {
		t.Fatalf("updates %d, want 42", snap.Updates)
	}
	if snap.Version != 0 {
		t.Fatalf("decoded frame must not carry a serving version, got %d", snap.Version)
	}
	if len(snap.Agents) != 3 {
		t.Fatalf("agents %d, want 3", len(snap.Agents))
	}
	for i := range nets {
		sameParams(t, nets[i], snap.Agents[i])
	}
}

// A snapshot frame is sized from the networks' shapes before a byte is
// written, so encoding allocates the frame and nothing else; and the bytes
// are the ones the commit before that sizing wrote (its trailer, the CRC
// of everything ahead of it, was cb375abe over 12171 bytes).
func TestEncodeSnapshotAllocatesOnce(t *testing.T) {
	nets := testNets(t, 1, 3)
	frame, err := EncodeSnapshot(nil, 42, nets)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != 12171 || binary.LittleEndian.Uint32(frame[len(frame)-4:]) != 0xcb375abe {
		t.Fatalf("frame of %d bytes with trailer %08x; want 12171 bytes, cb375abe", len(frame), binary.LittleEndian.Uint32(frame[len(frame)-4:]))
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = EncodeSnapshot(nil, 42, nets) }); allocs != 1 {
		t.Fatalf("EncodeSnapshot(nil, …) allocates %v times, want 1", allocs)
	}
}

func TestDecodeSnapshotRejectsDamage(t *testing.T) {
	nets := testNets(t, 2, 2)
	frame, err := EncodeSnapshot(nil, 7, nets)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func() []byte{
		"empty":     func() []byte { return nil },
		"short":     func() []byte { return frame[:10] },
		"magic":     func() []byte { f := append([]byte(nil), frame...); f[0] ^= 0xFF; return f },
		"bitflip":   func() []byte { f := append([]byte(nil), frame...); f[len(f)/2] ^= 0x01; return f },
		"truncated": func() []byte { return frame[:len(frame)-5] },
		"trailing":  func() []byte { return append(append([]byte(nil), frame...), 0xAA) },
	}
	for name, make := range cases {
		if _, err := DecodeSnapshot(make()); err == nil {
			t.Errorf("%s: corrupt frame decoded without error", name)
		}
	}
}

func TestStoreVersionsAndWait(t *testing.T) {
	s := NewStore(nil)
	if v, _, frame := s.Latest(); v != 0 || frame != nil {
		t.Fatalf("fresh store: version %d frame %v", v, frame)
	}
	// Zero-timeout Wait must return immediately.
	if v, _, _ := s.Wait(0, 0); v != 0 {
		t.Fatalf("fresh store wait: version %d", v)
	}

	nets := testNets(t, 3, 2)
	v1 := publishNets(t, s, 10, nets)
	if v1 != 1 {
		t.Fatalf("first publish version %d, want 1", v1)
	}

	// A waiter parked past the newest version is woken by the next publish.
	var got atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, _ := s.Wait(1, 5*time.Second)
		got.Store(v)
	}()
	time.Sleep(20 * time.Millisecond)
	v2 := publishNets(t, s, 20, nets)
	wg.Wait()
	if got.Load() != v2 {
		t.Fatalf("waiter saw version %d, want %d", got.Load(), v2)
	}

	// Wait that times out reports the (stale) newest version.
	start := time.Now()
	v, updates, _ := s.Wait(v2, 30*time.Millisecond)
	if v != v2 || updates != 20 {
		t.Fatalf("timed-out wait: version %d updates %d", v, updates)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("wait returned before its timeout with nothing new")
	}

	version, _, frame := s.Latest()
	snap, err := DecodeSnapshot(frame)
	if err != nil {
		t.Fatal(err)
	}
	if version != v2 || snap.Updates != 20 {
		t.Fatalf("decode: version %d updates %d", version, snap.Updates)
	}
}

func TestStoreRejectsCorruptPublish(t *testing.T) {
	s := NewStore(nil)
	if _, err := s.PublishCtx([]byte("not a policy frame"), trace.Context{}); err == nil {
		t.Fatal("corrupt publish accepted")
	}
	if v, _, _ := s.Latest(); v != 0 {
		t.Fatalf("corrupt publish advanced version to %d", v)
	}
}

func newTestServer(t *testing.T) (*Store, *httptest.Server) {
	t.Helper()
	store := NewStore(nil)
	srv, err := NewServer(ServerConfig{Store: store, MaxWait: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return store, ts
}

func fastClient(url string) *Client {
	c := NewClient(url, ClientOptions{
		Timeout:    5 * time.Second,
		Attempts:   3,
		BaseDelay:  time.Millisecond,
		MaxDelay:   5 * time.Millisecond,
		JitterSeed: 1,
	})
	return c
}

func TestServerFetchPublishCycle(t *testing.T) {
	_, ts := newTestServer(t)
	c := fastClient(ts.URL)

	// Nothing published: fetch reports "keep polling", stats report zero.
	snap, err := c.Fetch(context.Background(), 0, 0)
	if err != nil || snap != nil {
		t.Fatalf("pre-publish fetch: snap %v err %v", snap, err)
	}
	if st := getStats(t, ts.URL); st.Version != 0 {
		t.Fatalf("pre-publish stats: version %d", st.Version)
	}

	nets := testNets(t, 4, 3)
	v, err := c.PublishNetworks(5, nets)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("publish version %d, want 1", v)
	}

	snap, err = c.Fetch(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Version != 1 || snap.Updates != 5 || len(snap.Agents) != 3 {
		t.Fatalf("fetch: %+v", snap)
	}
	sameParams(t, nets[1], snap.Agents[1])

	// Caught-up fetch with a short hold comes back empty (304 path).
	snap, err = c.Fetch(context.Background(), 1, 20*time.Millisecond)
	if err != nil || snap != nil {
		t.Fatalf("caught-up fetch: snap %v err %v", snap, err)
	}

	// A long-polling fetch is released by the next publish.
	type result struct {
		snap *Snapshot
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		s, err := c2(ts.URL).Fetch(context.Background(), 1, 2*time.Second)
		ch <- result{s, err}
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := c.PublishNetworks(9, nets); err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.snap == nil || r.snap.Version != 2 || r.snap.Updates != 9 {
		t.Fatalf("long-poll fetch: %+v", r.snap)
	}

	if st := getStats(t, ts.URL); st.Version != 2 || st.Updates != 9 || st.Bytes == 0 {
		t.Fatalf("stats: version %d updates %d bytes %d", st.Version, st.Updates, st.Bytes)
	}
}

// getStats reads the document marl-policyd serves at PathStats.
func getStats(t *testing.T, base string) statsReply {
	t.Helper()
	resp, err := http.Get(base + PathStats)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d, %v", resp.StatusCode, err)
	}
	return st
}

// publishNets encodes nets at updates and publishes the frame on s, the
// store call behind marl-policyd's publish endpoint.
func publishNets(t *testing.T, s *Store, updates uint64, nets []*nn.Network) uint64 {
	t.Helper()
	frame, err := EncodeSnapshot(nil, updates, nets)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.PublishCtx(frame, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func c2(url string) *Client {
	return NewClient(url, ClientOptions{Timeout: 5 * time.Second, Attempts: 1, JitterSeed: 2})
}

func TestServerRejectsCorruptPublish(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+PathPolicy, "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty publish answered %d, want 400", resp.StatusCode)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	store := NewStore(nil)
	srv, err := NewServer(ServerConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	publishNets(t, store, 1, testNets(t, 5, 2))
	c := fastClient(flaky.URL)
	var slept int
	c.sleep = func(time.Duration) { slept++ }
	snap, err := c.Fetch(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Version != 1 {
		t.Fatalf("fetch through flaky front: %+v", snap)
	}
	if slept != 2 {
		t.Fatalf("backed off %d times, want 2", slept)
	}
}

func TestSyncerHotSwap(t *testing.T) {
	store, ts := newTestServer(t)
	sy := NewSyncer(fastClient(ts.URL), 500*time.Millisecond)
	installed := make(chan uint64, 16)
	sy.OnInstall = func(s *Snapshot) { installed <- s.Version }
	sy.Start()
	defer sy.Close()

	if got := sy.Latest(); got != nil {
		t.Fatalf("latest before any publish: %+v", got)
	}

	nets := testNets(t, 6, 2)
	for i := 1; i <= 3; i++ {
		publishNets(t, store, uint64(i*10), nets)
		select {
		case v := <-installed:
			if v != uint64(i) {
				t.Fatalf("installed version %d, want %d", v, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("syncer never installed version %d", i)
		}
	}
	snap := sy.Latest()
	if snap == nil || snap.Version != 3 || snap.Updates != 30 {
		t.Fatalf("latest after three publishes: %+v", snap)
	}
	if got := sy.WaitFirst(time.Second); got == nil {
		t.Fatal("WaitFirst returned nil with a snapshot installed")
	}
}

func TestSyncerSurvivesServerOutage(t *testing.T) {
	store := NewStore(nil)
	srv, err := NewServer(ServerConfig{Store: store, MaxWait: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var down atomic.Bool
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer front.Close()

	c := NewClient(front.URL, ClientOptions{Timeout: 2 * time.Second, Attempts: 1, BaseDelay: time.Millisecond, JitterSeed: 3})
	sy := NewSyncer(c, 40*time.Millisecond)
	installed := make(chan uint64, 16)
	sy.OnInstall = func(s *Snapshot) { installed <- s.Version }
	sy.Start()
	defer sy.Close()

	nets := testNets(t, 7, 2)
	publishNets(t, store, 1, nets)
	select {
	case <-installed:
	case <-time.After(5 * time.Second):
		t.Fatal("never installed v1")
	}

	down.Store(true)
	time.Sleep(100 * time.Millisecond) // several failed polls
	publishNets(t, store, 2, nets)
	down.Store(false)

	select {
	case v := <-installed:
		if v != 2 {
			t.Fatalf("post-outage install version %d, want 2", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("syncer did not recover after outage")
	}
}
