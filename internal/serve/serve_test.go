package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"marlperf/internal/nn"
	"marlperf/internal/tensor"
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

func installV1(t *testing.T, g *Gateway) []*nn.Network {
	t.Helper()
	nets := testNets(t, 1, 3, 8, 5)
	if err := g.Install(1, 10, nets, trace.Context{}); err != nil {
		t.Fatal(err)
	}
	return nets
}

// referenceActions is the gateway's oracle, computed without ActCore: each
// agent network's own forward on its one observation row, then the argmax.
func referenceActions(nets []*nn.Network, obs [][]float64) []int {
	actions := make([]int, len(nets))
	for a, net := range nets {
		actions[a] = tensor.ArgMax(net.Forward(tensor.FromSlice(1, len(obs[a]), obs[a])).Row(0))
	}
	return actions
}

// The gateway refuses to act before the first install, then answers every
// request with the head version and the reference's actions on the head's
// weights, across a hot-swap to different weights.
func TestGatewayReadiness(t *testing.T) {
	g := NewGateway(Config{})
	if _, err := g.Act(0, nil); err != ErrNotReady {
		t.Fatalf("pre-install Act error %v, want ErrNotReady", err)
	}
	if head, _ := g.Versions(); head != 0 {
		t.Fatalf("pre-install head version %d, want 0", head)
	}
	obsDims := []int{8, 8, 8}
	for _, v := range []struct {
		version uint64
		nets    []*nn.Network
	}{{1, testNets(t, 1, 3, 8, 5)}, {2, testNets(t, 2, 3, 8, 5)}} {
		if err := g.Install(v.version, 0, v.nets, trace.Context{}); err != nil {
			t.Fatal(err)
		}
		if head, _ := g.Versions(); head != v.version {
			t.Fatalf("head version %d after installing v%d", head, v.version)
		}
		for i := 0; i < 50; i++ {
			obs := testObs(int64(100+i), obsDims)
			res, err := g.Act(0, obs)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceActions(v.nets, obs)
			if res.Version != v.version || fmt.Sprint(res.Actions) != fmt.Sprint(want) {
				t.Fatalf("v%d request %d: served v%d %v, reference %v", v.version, i, res.Version, res.Actions, want)
			}
		}
	}
}

// Concurrent callers share the gateway's one ActCore under its mutex; each
// must still get the per-request reference's actions for its own
// observations.
func TestBatchedMatchesDirect(t *testing.T) {
	nets := testNets(t, 2, 3, 8, 5)
	obsDims := []int{8, 8, 8}
	const requests, conc = 200, 32

	g := NewGateway(Config{})
	if err := g.Install(1, 0, nets, trace.Context{}); err != nil {
		t.Fatal(err)
	}
	obsSets := make([][][]float64, requests)
	for i := range obsSets {
		obsSets[i] = testObs(int64(100+i), obsDims)
	}
	got := make([][]int, requests)
	var wg sync.WaitGroup
	sem := make(chan struct{}, conc)
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
	for i, obs := range obsSets {
		if want := referenceActions(nets, obs); fmt.Sprint(got[i]) != fmt.Sprint(want) {
			t.Fatalf("request %d: concurrent actions %v, reference %v", i, got[i], want)
		}
	}
}

func TestGatewayValidation(t *testing.T) {
	g := NewGateway(Config{})
	installV1(t, g) // 3 agents × 8 dims → 5 actions
	if _, err := g.Act(0, testObs(1, []int{8, 8})); err == nil {
		t.Fatal("wrong agent count accepted")
	}
	if _, err := g.Act(0, testObs(1, []int{8, 8, 9})); err == nil {
		t.Fatal("wrong obs width accepted")
	}
	// A mismatched later install is rejected and the head stays serving.
	if err := g.Install(5, 0, testNets(t, 11, 2, 6, 4), trace.Context{}); err == nil {
		t.Fatal("shape-changing install accepted")
	}
	if res, err := g.Act(0, testObs(2, []int{8, 8, 8})); err != nil || res.Version != 1 {
		t.Fatalf("head lost after rejected install: %+v err %v", res, err)
	}
	// Stale re-delivery is ignored, not an error.
	if err := g.Install(1, 0, testNets(t, 1, 3, 8, 5), trace.Context{}); err != nil {
		t.Fatal(err)
	}
}

// --- HTTP layer ---

func newTestServer(t *testing.T) (*Gateway, *Server, *httptest.Server) {
	t.Helper()
	g := NewGateway(Config{})
	srv, err := NewServer(g)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return g, srv, ts
}

func postFrame(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// /act is the server's readiness gate: 503 before the first install, then
// the head's answer.
func TestServerHealthzGate(t *testing.T) {
	g, _, ts := newTestServer(t)
	obs := testObs(1, []int{8, 8, 8})
	frame := EncodeObsFrame(nil, obs)
	if status, body := postFrame(t, ts.URL+PathAct, frame); status != http.StatusServiceUnavailable {
		t.Fatalf("pre-install act status %d (%s), want 503", status, bytes.TrimSpace(body))
	}
	installV1(t, g)
	status, body := postFrame(t, ts.URL+PathAct, frame)
	if status != http.StatusOK {
		t.Fatalf("post-install act status %d (%s), want 200", status, bytes.TrimSpace(body))
	}
	if version, _, err := DecodeActReply(body); err != nil || version != 1 {
		t.Fatalf("post-install act reply v%d (err %v), want v1", version, err)
	}
}

func TestServerErrors(t *testing.T) {
	g, _, ts := newTestServer(t)
	obs := testObs(1, []int{8, 8, 8})
	frame := EncodeObsFrame(nil, obs)
	nets := installV1(t, g)

	// A frame at the wrong length, and a body that is not a frame at all.
	for _, bad := range [][]byte{make([]byte, 7), []byte("{nope")} {
		if status, _ := postFrame(t, ts.URL+PathAct, bad); status != http.StatusBadRequest {
			t.Fatalf("%d-byte body status %d, want 400", len(bad), status)
		}
	}

	// GET is not an action.
	resp, err := http.Get(ts.URL + PathAct)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /act status %d", resp.StatusCode)
	}

	// And a whole frame is answered as the gateway answers it.
	status, body := postFrame(t, ts.URL+PathAct, frame)
	if status != http.StatusOK {
		t.Fatalf("act status %d (%s)", status, bytes.TrimSpace(body))
	}
	version, actions, err := DecodeActReply(body)
	if want := referenceActions(nets, obs); err != nil || version != 1 || fmt.Sprint(actions) != fmt.Sprint(want) {
		t.Fatalf("act reply v%d %v (err %v), want v1 %v", version, actions, err, want)
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
