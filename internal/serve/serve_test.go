package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"marlperf/internal/nn"
	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

func testNets(t testing.TB, seed int64, n, obsDim, actDim int) []*nn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nets := make([]*nn.Network, n)
	for i := range nets {
		nets[i] = nn.NewMLP(rng, obsDim, 32, 32, actDim)
	}
	return nets
}

func testObs(seed int64, obsDims []int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	obs := make([][]float64, len(obsDims))
	for i, w := range obsDims {
		row := make([]float64, w)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		obs[i] = row
	}
	return obs
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g := NewGateway(cfg)
	t.Cleanup(func() { _ = g.Drain(5 * time.Second) })
	return g
}

func installV1(t *testing.T, g *Gateway) []*nn.Network {
	t.Helper()
	nets := testNets(t, 1, 3, 8, 5)
	if err := g.Install(1, 10, nets, traceZero()); err != nil {
		t.Fatal(err)
	}
	return nets
}

func traceZero() trace.Context { return trace.Context{} }

func TestGatewayReadiness(t *testing.T) {
	g := newTestGateway(t, Config{Window: 0})
	if g.Ready() {
		t.Fatal("fresh gateway reports ready")
	}
	if _, err := g.Act(0, nil); err != ErrNotReady {
		t.Fatalf("pre-install Act error %v, want ErrNotReady", err)
	}
	installV1(t, g)
	if !g.Ready() {
		t.Fatal("gateway not ready after install")
	}
	res, err := g.Act(0, testObs(7, []int{8, 8, 8}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || len(res.Actions) != 3 {
		t.Fatalf("act: %+v", res)
	}
	for _, a := range res.Actions {
		if a < 0 || a >= 5 {
			t.Fatalf("action %d out of range", a)
		}
	}
}

// TestBatchedMatchesDirect is the bit-identity contract at the gateway
// level: the same observations produce the same actions whether each
// request forwards alone (Direct), trickles through the batcher one at a
// time, or is coalesced with many concurrent neighbors. Run with -race,
// this also exercises the enqueue/reply paths under contention.
func TestBatchedMatchesDirect(t *testing.T) {
	nets := testNets(t, 2, 3, 8, 5)
	obsDims := []int{8, 8, 8}
	const requests = 200

	obsSets := make([][][]float64, requests)
	for i := range obsSets {
		obsSets[i] = testObs(int64(100+i), obsDims)
	}

	// Reference: per-request forwards, no batching anywhere.
	direct := newTestGateway(t, Config{Direct: true})
	if err := direct.Install(1, 0, nets, traceZero()); err != nil {
		t.Fatal(err)
	}
	want := make([][]int, requests)
	for i, obs := range obsSets {
		res, err := direct.Act(0, obs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Actions
	}

	for _, tc := range []struct {
		name string
		cfg  Config
		conc int
	}{
		{"sequential-window0", Config{Window: 0, MaxBatch: 64}, 1},
		{"coalesced", Config{Window: 5 * time.Millisecond, MaxBatch: 64}, 32},
		{"coalesced-tiny-batch", Config{Window: time.Millisecond, MaxBatch: 4}, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newTestGateway(t, tc.cfg)
			if err := g.Install(1, 0, nets, traceZero()); err != nil {
				t.Fatal(err)
			}
			got := make([][]int, requests)
			var wg sync.WaitGroup
			sem := make(chan struct{}, tc.conc)
			for i, obs := range obsSets {
				wg.Add(1)
				sem <- struct{}{}
				go func(i int, obs [][]float64) {
					defer wg.Done()
					defer func() { <-sem }()
					res, err := g.Act(0, obs)
					if err != nil {
						t.Errorf("request %d: %v", i, err)
						return
					}
					got[i] = res.Actions
				}(i, obs)
			}
			wg.Wait()
			for i := range want {
				if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
					t.Fatalf("request %d: coalesced actions %v, per-request actions %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestCanarySplitDeterministicAndCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := newTestGateway(t, Config{Window: 0, CanaryPercent: 25, Seed: 42, Registry: reg})
	netsV1 := testNets(t, 3, 2, 6, 4)
	netsV2 := testNets(t, 4, 2, 6, 4)
	if err := g.Install(1, 0, netsV1, traceZero()); err != nil {
		t.Fatal(err)
	}

	// One snapshot: no split regardless of percent.
	obs := testObs(9, []int{6, 6})
	for i := 0; i < 10; i++ {
		res, err := g.Act(0, obs)
		if err != nil || res.Version != 1 {
			t.Fatalf("pre-canary act: %+v err %v", res, err)
		}
	}

	if err := g.Install(2, 0, netsV2, traceZero()); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	hits := map[uint64]int{}
	for i := 0; i < n; i++ {
		res, err := g.Act(0, obs)
		if err != nil {
			t.Fatal(err)
		}
		hits[res.Version]++
	}
	if hits[1] == 0 || hits[2] == 0 {
		t.Fatalf("one arm starved: %v", hits)
	}
	frac := float64(hits[2]) / n
	if frac < 0.18 || frac > 0.32 {
		t.Fatalf("canary fraction %.3f far from configured 0.25 (hits %v)", frac, hits)
	}

	// The split is a pure function of (seed, sequence): replaying the same
	// sequence window on a fresh gateway reproduces the same arm choices.
	for seq := uint64(1); seq <= 100; seq++ {
		if canaryArm(42, seq, 25) != canaryArm(42, seq, 25) {
			t.Fatal("canaryArm is not deterministic")
		}
	}
	a, b := 0, 0
	for seq := uint64(0); seq < 10000; seq++ {
		if canaryArm(42, seq, 25) {
			a++
		}
		if canaryArm(43, seq, 25) {
			b++
		}
	}
	if a == b {
		t.Fatalf("different seeds produced identical arm counts (%d) — suspicious hash", a)
	}

	snap := reg.Snapshot()
	var canary, stable uint64
	for _, c := range snap.Counters {
		if c.Name == "marl_serve_canary_total" {
			for _, l := range c.Labels {
				if l.Name == "arm" && l.Value == "canary" {
					canary = c.Value
				}
				if l.Name == "arm" && l.Value == "stable" {
					stable = c.Value
				}
			}
		}
	}
	if canary != uint64(hits[2]) || stable != uint64(hits[1]) {
		t.Fatalf("canary counters %d/%d, served %d/%d", canary, stable, hits[2], hits[1])
	}
}

func TestVersionPinning(t *testing.T) {
	g := newTestGateway(t, Config{Window: 0})
	netsV1 := testNets(t, 5, 2, 6, 4)
	netsV2 := testNets(t, 6, 2, 6, 4)
	if err := g.Install(1, 0, netsV1, traceZero()); err != nil {
		t.Fatal(err)
	}
	if err := g.Install(2, 0, netsV2, traceZero()); err != nil {
		t.Fatal(err)
	}
	obs := testObs(11, []int{6, 6})
	for _, v := range []uint64{1, 2} {
		res, err := g.Act(v, obs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != v {
			t.Fatalf("pinned %d, served %d", v, res.Version)
		}
	}
	if _, err := g.Act(9, obs); err == nil {
		t.Fatal("pinning an unretained version did not error")
	}

	// Pinned answers track the pinned weights, not the head: v1 answers
	// must match a fresh gateway serving only v1.
	ref := newTestGateway(t, Config{Window: 0})
	if err := ref.Install(1, 0, netsV1, traceZero()); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Act(0, obs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Act(1, obs)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Actions) != fmt.Sprint(want.Actions) {
		t.Fatalf("pinned v1 actions %v, dedicated v1 gateway says %v", got.Actions, want.Actions)
	}
}

func TestInstallPreviousBackfill(t *testing.T) {
	g := newTestGateway(t, Config{Window: 0, CanaryPercent: 50, Seed: 7})
	netsV1 := testNets(t, 7, 2, 6, 4)
	netsV2 := testNets(t, 8, 2, 6, 4)
	if err := g.Install(2, 0, netsV2, traceZero()); err != nil {
		t.Fatal(err)
	}
	if err := g.InstallPrevious(1, 0, netsV1, traceZero()); err != nil {
		t.Fatal(err)
	}
	head, prev := g.Versions()
	if head != 2 || prev != 1 {
		t.Fatalf("versions %d/%d, want 2/1", head, prev)
	}
	obs := testObs(13, []int{6, 6})
	hits := map[uint64]int{}
	for i := 0; i < 500; i++ {
		res, err := g.Act(0, obs)
		if err != nil {
			t.Fatal(err)
		}
		hits[res.Version]++
	}
	if hits[1] == 0 || hits[2] == 0 {
		t.Fatalf("backfilled stable arm never served: %v", hits)
	}

	// Backfill never displaces an existing stable arm or the head.
	if err := g.InstallPrevious(1, 0, testNets(t, 9, 2, 6, 4), traceZero()); err != nil {
		t.Fatal(err)
	}
	if err := g.InstallPrevious(3, 0, testNets(t, 10, 2, 6, 4), traceZero()); err != nil {
		t.Fatal(err)
	}
	if head, prev := g.Versions(); head != 2 || prev != 1 {
		t.Fatalf("backfill rewrote the window: %d/%d", head, prev)
	}
}

func TestGatewayValidation(t *testing.T) {
	g := newTestGateway(t, Config{Window: 0})
	installV1(t, g) // 3 agents × 8 dims → 5 actions
	if _, err := g.Act(0, testObs(1, []int{8, 8})); err == nil {
		t.Fatal("wrong agent count accepted")
	}
	if _, err := g.Act(0, testObs(1, []int{8, 8, 9})); err == nil {
		t.Fatal("wrong obs width accepted")
	}
	// A mismatched later install is rejected and the head stays serving.
	if err := g.Install(5, 0, testNets(t, 11, 2, 6, 4), traceZero()); err == nil {
		t.Fatal("shape-changing install accepted")
	}
	if res, err := g.Act(0, testObs(2, []int{8, 8, 8})); err != nil || res.Version != 1 {
		t.Fatalf("head lost after rejected install: %+v err %v", res, err)
	}
	// Stale re-delivery is ignored, not an error.
	if err := g.Install(1, 0, testNets(t, 1, 3, 8, 5), traceZero()); err != nil {
		t.Fatal(err)
	}
}

func TestGatewayDrain(t *testing.T) {
	g := NewGateway(Config{Window: 2 * time.Millisecond, MaxBatch: 8})
	installV1(t, g)
	obs := testObs(3, []int{8, 8, 8})

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Act(0, obs); err != nil && err != ErrDraining && err != ErrOverloaded {
				errs <- err
			}
		}()
	}
	time.Sleep(time.Millisecond)
	if err := g.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := g.Act(0, obs); err != ErrDraining {
		t.Fatalf("post-drain Act error %v, want ErrDraining", err)
	}
	// Idempotent.
	if err := g.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
}

// --- HTTP layer ---

func newTestServer(t *testing.T, cfg Config) (*Gateway, *Server, *httptest.Server) {
	t.Helper()
	g := newTestGateway(t, cfg)
	srv, err := NewServer(g)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return g, srv, ts
}

func postJSON(t *testing.T, url string, obs [][]float64) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(ActRequest{Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestServerHealthzGate(t *testing.T) {
	g, _, ts := newTestServer(t, Config{Window: 0})
	resp, err := http.Get(ts.URL + PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-install healthz %d, want 503", resp.StatusCode)
	}
	// /act also refuses before the first install.
	r2, _ := postJSON(t, ts.URL+PathAct, testObs(1, []int{8, 8, 8}))
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-install act %d, want 503", r2.StatusCode)
	}
	installV1(t, g)
	resp, err = http.Get(ts.URL + PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("version=1")) {
		t.Fatalf("post-install healthz %d %q", resp.StatusCode, body)
	}
}

// TestServerJSONBinaryIdentity drives the full HTTP path in both encodings
// under concurrency and checks every answer equals the per-request Direct
// reference — the end-to-end form of the bit-identity contract.
func TestServerJSONBinaryIdentity(t *testing.T) {
	nets := testNets(t, 12, 3, 8, 5)
	obsDims := []int{8, 8, 8}
	const requests = 120

	direct := newTestGateway(t, Config{Direct: true})
	if err := direct.Install(1, 0, nets, traceZero()); err != nil {
		t.Fatal(err)
	}
	obsSets := make([][][]float64, requests)
	want := make([][]int, requests)
	for i := range obsSets {
		obsSets[i] = testObs(int64(500+i), obsDims)
		res, err := direct.Act(0, obsSets[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Actions
	}

	g, _, ts := newTestServer(t, Config{Window: 3 * time.Millisecond, MaxBatch: 32})
	if err := g.Install(1, 0, nets, traceZero()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 { // JSON
				resp, data := postJSON(t, ts.URL+PathAct, obsSets[i])
				if resp.StatusCode != http.StatusOK {
					t.Errorf("json %d: status %d: %s", i, resp.StatusCode, data)
					return
				}
				if resp.Header.Get("X-Serve-Version") != "1" {
					t.Errorf("json %d: X-Serve-Version %q", i, resp.Header.Get("X-Serve-Version"))
				}
				var reply ActReply
				if err := json.Unmarshal(data, &reply); err != nil {
					t.Errorf("json %d: %v", i, err)
					return
				}
				if reply.Version != 1 || fmt.Sprint(reply.Actions) != fmt.Sprint(want[i]) {
					t.Errorf("json %d: got %v want %v", i, reply.Actions, want[i])
				}
			} else { // binary
				frame := EncodeObsFrame(nil, obsSets[i])
				resp, err := http.Post(ts.URL+PathAct, "application/octet-stream", bytes.NewReader(frame))
				if err != nil {
					t.Errorf("bin %d: %v", i, err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("bin %d: status %d: %s", i, resp.StatusCode, data)
					return
				}
				version, actions, err := DecodeActReply(data)
				if err != nil {
					t.Errorf("bin %d: %v", i, err)
					return
				}
				if version != 1 || fmt.Sprint(actions) != fmt.Sprint(want[i]) {
					t.Errorf("bin %d: got %v want %v", i, actions, want[i])
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestServerErrors(t *testing.T) {
	g, _, ts := newTestServer(t, Config{Window: 0})
	installV1(t, g)

	// Bad JSON.
	resp, err := http.Post(ts.URL+PathAct, "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", resp.StatusCode)
	}

	// Binary frame at the wrong length.
	resp, err = http.Post(ts.URL+PathAct, "application/octet-stream", bytes.NewReader(make([]byte, 7)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short binary frame status %d", resp.StatusCode)
	}

	// Unretained pin.
	resp, _ = postJSONURL(t, ts.URL+PathAct+"?version=9", testObs(1, []int{8, 8, 8}))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unretained pin status %d, want 404", resp.StatusCode)
	}

	// GET is not an action.
	resp, err = http.Get(ts.URL + PathAct)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /act status %d", resp.StatusCode)
	}
}

func postJSONURL(t *testing.T, url string, obs [][]float64) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, url, obs)
}

func TestServerStatz(t *testing.T) {
	g, _, ts := newTestServer(t, Config{Window: 0})
	resp, err := http.Get(ts.URL + PathStatz)
	if err != nil {
		t.Fatal(err)
	}
	var st Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Ready || st.Version != 0 {
		t.Fatalf("fresh statz: %+v", st)
	}
	installV1(t, g)
	resp, err = http.Get(ts.URL + PathStatz)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Ready || st.Version != 1 || st.Agents != 3 || st.ActDim != 5 || len(st.ObsDims) != 3 || st.ObsDims[0] != 8 {
		t.Fatalf("statz: %+v", st)
	}
}

func TestServerDrain(t *testing.T) {
	g, srv, ts := newTestServer(t, Config{Window: time.Millisecond, MaxBatch: 8})
	installV1(t, g)
	obs := testObs(21, []int{8, 8, 8})

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+PathAct, obs)
			// Accepted requests must answer 200; refused ones 503/429.
			switch resp.StatusCode {
			case http.StatusOK, http.StatusServiceUnavailable, http.StatusTooManyRequests:
			default:
				t.Errorf("drain-race status %d: %s", resp.StatusCode, data)
			}
		}()
	}
	if err := srv.BeginDrain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	resp, _ := postJSON(t, ts.URL+PathAct, obs)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain act status %d, want 503", resp.StatusCode)
	}
	hz, err := http.Get(ts.URL + PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz %d, want 503", hz.StatusCode)
	}
}

// TestActSpansJoinInstallTrace pins the serving tail of the distributed
// trace: an install descending from a publish trace records serve-install,
// and sampled /act requests record act-request + batch-forward spans under
// the same trace ID, which the Result hands back for the client's own
// after-the-fact span.
func TestActSpansJoinInstallTrace(t *testing.T) {
	tr := trace.New("serve-test", 1024)
	tr.SetEnabled(true)
	tr.SetSampleEvery(1)
	g := newTestGateway(t, Config{Window: 0, Tracer: tr})
	root := tr.StartTrace(777, "publish")
	nets := testNets(t, 40, 2, 6, 4)
	if err := g.Install(1, 0, nets, root.Context()); err != nil {
		t.Fatal(err)
	}
	res, err := g.Act(0, testObs(41, []int{6, 6}))
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceCtx.TraceID != 777 {
		t.Fatalf("result trace ID %d, want 777", res.TraceCtx.TraceID)
	}
	root.EndArg("", 0)
	names := map[string]bool{}
	for _, r := range tr.Snapshot() {
		if r.TraceID != 777 {
			t.Fatalf("span %q on trace %d, want 777", r.Name, r.TraceID)
		}
		names[r.Name] = true
	}
	for _, want := range []string{"serve-install", "act-request", "batch-forward"} {
		if !names[want] {
			t.Fatalf("trace is missing a %q span (have %v)", want, names)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	obs := testObs(31, []int{3, 5})
	frame := EncodeObsFrame(nil, obs)
	back, err := DecodeObsFrame(frame, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(back) != fmt.Sprint(obs) {
		t.Fatalf("obs round trip: %v vs %v", back, obs)
	}
	if _, err := DecodeObsFrame(frame[:len(frame)-1], []int{3, 5}); err == nil {
		t.Fatal("truncated obs frame decoded")
	}

	reply := EncodeActReply(nil, 7, []int{2, 0, 4})
	version, actions, err := DecodeActReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	if version != 7 || fmt.Sprint(actions) != "[2 0 4]" {
		t.Fatalf("reply round trip: v%d %v", version, actions)
	}
	for _, bad := range [][]byte{nil, reply[:10], append(append([]byte(nil), reply...), 1), []byte("XXXX12345678keys")} {
		if _, _, err := DecodeActReply(bad); err == nil {
			t.Fatalf("malformed reply %v decoded", bad)
		}
	}
}
