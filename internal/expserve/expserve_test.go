package expserve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marlperf/internal/expshard"
	"marlperf/internal/expstore"
	"marlperf/internal/replay"
	"marlperf/internal/rowmem"
	"marlperf/internal/telemetry"
)

func testSpec(capacity int) replay.Spec {
	return replay.Spec{NumAgents: 2, ObsDims: []int{3, 4}, ActDim: 2, Capacity: capacity}
}

// step produces one deterministic environment step for the spec.
func step(rng *rand.Rand) (obs, act [][]float64, rew []float64, nxt [][]float64, done []float64) {
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	obs = [][]float64{vec(3), vec(4)}
	act = [][]float64{vec(2), vec(2)}
	nxt = [][]float64{vec(3), vec(4)}
	rew = []float64{rng.NormFloat64(), rng.NormFloat64()}
	done = []float64{0, float64(rng.Intn(2))}
	return
}

func newTestServer(t *testing.T, spec replay.Spec, reg *telemetry.Registry) (*Server, *httptest.Server) {
	t.Helper()
	ring := expstore.NewRing(spec)
	srv, err := NewServer(ServerConfig{Provider: ring, Spec: spec, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs
}

// oneGroupFabric is what a plain -replay-addr builds: one shard group with
// one member, every member client configured from opts.
func oneGroupFabric(t *testing.T, url string, opts ClientOptions) *Fabric {
	t.Helper()
	groups, err := expshard.ParseSpec(url)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFabric(groups, FabricOptions{Client: opts})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fastOpts retries quickly so fault tests stay short.
var fastOpts = ClientOptions{Timeout: 5 * time.Second, Attempts: 4, BaseDelay: time.Millisecond, JitterSeed: 1}

func fastClient(url string) *Client { return NewClient(url, fastOpts) }

// A batch whose ack is lost must count once, whichever layer redelivers it:
// the client's retry loop inside one Flush (attempts > 1), or — once that
// loop has given up and Flush has failed — the next Flush, which must
// re-ship the identical frame under the same sequence number.
func TestAppendIsIdempotentUnderRetry(t *testing.T) {
	for _, attempts := range []int{4, 1} {
		spec := testSpec(128)
		reg := telemetry.NewRegistry()
		_, hs := newTestServer(t, spec, reg)

		// A flaky proxy: fails the first attempt of every append AFTER the
		// server has applied it, forcing a redelivery of a batch that
		// already landed.
		var flake atomic.Bool
		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req, _ := http.NewRequest(r.Method, hs.URL+r.URL.Path, r.Body)
			req.Header = r.Header
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			if strings.HasPrefix(r.URL.Path, PathAppend) && flake.CompareAndSwap(false, true) {
				http.Error(w, "injected: ack lost", http.StatusBadGateway)
				return
			}
			w.WriteHeader(resp.StatusCode)
			_, _ = io.Copy(w, resp.Body)
		}))
		defer proxy.Close()

		opts := fastOpts
		opts.Attempts = attempts
		sink, err := NewRemoteSink(NewClient(proxy.URL, opts), "actor-0", spec)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 10; i++ {
			obs, act, rew, nxt, done := step(rng)
			if err := sink.Add(obs, act, rew, nxt, done); err != nil {
				t.Fatal(err)
			}
		}
		err = sink.Flush()
		if attempts == 1 {
			if err == nil {
				t.Fatal("single-attempt flush through a lost ack succeeded")
			}
			err = sink.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}

		// The batch went over the wire twice but must count once.
		if got := reg.Counter("marl_exp_ingest_rows_total").Value(); got != 10 {
			t.Fatalf("attempts=%d: ingested %d rows after redelivered batch, want 10", attempts, got)
		}
		if got := reg.Counter("marl_exp_ingest_dup_batches_total").Value(); got != 1 {
			t.Fatalf("attempts=%d: dup batches = %d, want 1", attempts, got)
		}
	}
}

func TestBackpressureAnswers429AndClientRetries(t *testing.T) {
	spec := testSpec(128)
	ring := expstore.NewRing(spec)
	blocked := &blockingProvider{Ring: ring, gate: make(chan struct{})}
	reg := telemetry.NewRegistry()
	srv, err := NewServer(ServerConfig{Provider: blocked, Spec: spec, QueueDepth: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	// hs.Close waits for in-flight handlers, which wait on the writer, which
	// waits on the gate — so the gate must open before the server closes.
	defer hs.Close()
	defer srv.Close()
	defer blocked.release()

	layout := replay.NewRowLayout(spec)
	send := func(c *Client, actor string, seq uint64) error {
		rows := make([]float64, layout.Stride())
		body := expstore.EncodeAppend(nil, expstore.Batch{ActorID: actor, BatchSeq: seq, Rows: rows, N: 1}, layout.Stride())
		_, err := c.do(http.MethodPost, PathAppend, "application/octet-stream", body)
		return err
	}

	// Occupy the writer with a batch the provider blocks on, then fill the
	// depth-1 queue behind it with a second real append: the next one must
	// be bounced with 429.
	one := NewClient(hs.URL, ClientOptions{Attempts: 1, Timeout: 10 * time.Second, JitterSeed: 1})
	errc := make(chan error, 2)
	go func() { errc <- send(one, "a", 1) }()
	blocked.waitBusy(t)
	go func() { errc <- send(one, "b", 1) }()
	for deadline := time.Now().Add(5 * time.Second); len(srv.admit) < cap(srv.admit); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d admission slots taken; the second gated append was never admitted", len(srv.admit), cap(srv.admit))
		}
		time.Sleep(time.Millisecond)
	}

	noRetry := NewClient(hs.URL, ClientOptions{Attempts: 1, Timeout: 5 * time.Second, JitterSeed: 3})
	if err := send(noRetry, "a", 2); err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("append against a full queue: err = %v, want a 429", err)
	}
	if got := reg.Counter("marl_exp_ingest_rejected_total").Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	// A retrying client sent during the stall succeeds once the writer
	// unblocks: the 429 is transient backpressure, not failure.
	retrier := NewClient(hs.URL, ClientOptions{Attempts: 8, BaseDelay: 5 * time.Millisecond, Timeout: 10 * time.Second, JitterSeed: 4})
	done := make(chan error, 1)
	go func() { done <- send(retrier, "a", 3) }()
	time.Sleep(20 * time.Millisecond)
	blocked.release()
	if err := <-done; err != nil {
		t.Fatalf("retrying append failed across backpressure: %v", err)
	}
	for range 2 {
		if err := <-errc; err != nil {
			t.Fatalf("gated append failed after release: %v", err)
		}
	}
}

// Close waits for an admitted batch to be applied and acknowledged, its
// cursor advanced, before it returns, and admits nothing after: a later
// append is answered 429.
func TestCloseDrainsAdmittedAppends(t *testing.T) {
	spec := testSpec(128)
	blocked := &blockingProvider{Ring: expstore.NewRing(spec), gate: make(chan struct{})}
	srv, err := NewServer(ServerConfig{Provider: blocked, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer blocked.release()

	stride := replay.NewRowLayout(spec).Stride()
	send := func(seq uint64) error {
		body := expstore.EncodeAppend(nil, expstore.Batch{ActorID: "a", BatchSeq: seq, Rows: make([]float64, stride), N: 1}, stride)
		_, err := NewClient(hs.URL, ClientOptions{Attempts: 1, Timeout: 10 * time.Second, JitterSeed: 1}).
			do(http.MethodPost, PathAppend, "application/octet-stream", body)
		return err
	}
	acked := make(chan error, 1)
	go func() { acked <- send(1) }()
	blocked.waitBusy(t)
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while an admitted batch was still applying")
	case <-time.After(50 * time.Millisecond):
	}
	blocked.release()
	if err := <-acked; err != nil {
		t.Fatalf("admitted append failed across Close: %v", err)
	}
	<-closed
	if blocked.Ring.Len() != 1 {
		t.Fatalf("ring holds %d rows after the drain, want 1", blocked.Ring.Len())
	}
	if st, err := fastClient(hs.URL).ServiceStats(); err != nil || st.Actors["a"] != 1 {
		t.Fatalf("stats after Close: cursors %v, %v; want the admitted batch's seq 1 for actor a", st.Actors, err)
	}
	if err := send(2); err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("append after Close: err = %v, want a 429", err)
	}
}

// blockingProvider stalls the first AppendRow until released, simulating a
// slow disk so the ingest queue fills.
type blockingProvider struct {
	*expstore.Ring
	gate     chan struct{}
	busy     atomic.Bool
	opened   atomic.Bool
	released sync.Once
}

func (p *blockingProvider) AppendRow(row []float64) error {
	if p.opened.CompareAndSwap(false, true) {
		p.busy.Store(true)
		<-p.gate
	}
	return p.Ring.AppendRow(row)
}

func (p *blockingProvider) waitBusy(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !p.busy.Load() {
		if time.Now().After(deadline) {
			t.Fatal("writer never picked up the blocking batch")
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *blockingProvider) release() { p.released.Do(func() { close(p.gate) }) }

// Sampling an empty store fails instead of returning garbage, at both
// ends: the source refuses to draw from an empty view, and a server asked
// for rows anyway — by a view that saw them before the store lost them —
// answers 409 (the learner polling before warmup, not a server fault).
func TestSampleBeforeWarmupIsConflict(t *testing.T) {
	spec := testSpec(64)
	_, hs := newTestServer(t, spec, nil)
	opts := ClientOptions{Attempts: 1, Timeout: 5 * time.Second, JitterSeed: 1}
	plan := replay.SamplePlan{Strategy: replay.PlanUniform}
	src, err := NewShardedSource(oneGroupFabric(t, hs.URL, opts), spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	dst := []*replay.AgentBatch{replay.NewAgentBatch(4, 3, 2), replay.NewAgentBatch(4, 4, 2)}
	if _, err := src.SampleBatch(4, 1, dst); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("sampling an empty store: err = %v, want an empty-stream error", err)
	}
	req, err := encodeShardSampleRequest(nil, shardSampleRequest{
		Stat: expshard.GroupStat{Rows: 4, Total: 4}, Locals: []int{0, 1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(hs.URL, opts).do(http.MethodPost, PathShardSample, "application/octet-stream", req); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("shard-sample from an empty store: err = %v, want a 409", err)
	}
}

func TestServerRejectsMismatchedSpec(t *testing.T) {
	spec := testSpec(64)
	_, hs := newTestServer(t, spec, nil)
	other := replay.Spec{NumAgents: 2, ObsDims: []int{3, 9}, ActDim: 2, Capacity: 64}
	if _, err := NewShardedSource(oneGroupFabric(t, hs.URL, fastOpts), other, replay.SamplePlan{Strategy: replay.PlanUniform}); err == nil {
		t.Fatal("spec mismatch accepted")
	}
}

func TestWireAppendRejectsCorruption(t *testing.T) {
	spec := testSpec(16)
	layout := replay.NewRowLayout(spec)
	rows := make([]float64, 2*layout.Stride())
	valid := expstore.EncodeAppend(nil, expstore.Batch{ActorID: "a", BatchSeq: 1, Rows: rows, N: 2}, layout.Stride())
	if _, err := expstore.DecodeAppend(valid, layout.Stride(), new([]float64)); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	for _, corrupt := range [][]byte{
		{},
		valid[:len(valid)/2],
		append(append([]byte(nil), valid[:len(valid)-1]...), valid[len(valid)-1]^1),
	} {
		if _, err := expstore.DecodeAppend(corrupt, layout.Stride(), new([]float64)); err == nil {
			t.Fatalf("corrupt frame of %d bytes accepted", len(corrupt))
		}
	}
	mid := append([]byte(nil), valid...)
	mid[20] ^= 0x80
	if _, err := expstore.DecodeAppend(mid, layout.Stride(), new([]float64)); err == nil {
		t.Fatal("bit-flipped frame accepted")
	}
}

// An operator sees where the rows live: /v1/stats and /metrics report the
// bytes mapped outside the Go heap — all of a ring of at least one huge
// page, none of a smaller one — and the process's huge-page-backed bytes,
// for a bare ring and for a store alike.
func TestStatsAndMetricsReportArena(t *testing.T) {
	// 144-byte rows: 16384 of them are 2.25 MiB, 64 of them 9 KiB.
	for _, capacity := range []int{64, 16384} {
		spec := testSpec(capacity)
		ring := expstore.NewRing(spec)
		store, err := expstore.Open(t.TempDir(), spec, expstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ring.Close(); store.Close() })
		for name, prov := range map[string]expstore.Provider{"ring": ring, "store": store} {
			want := ring.ArenaBytes()
			if want != store.ArenaBytes() || (want > 0) != (capacity == 16384 && runtime.GOOS == "linux") {
				t.Fatalf("capacity %d: ring maps %d bytes, store %d", capacity, want, store.ArenaBytes())
			}
			reg := telemetry.NewRegistry()
			srv, err := NewServer(ServerConfig{Provider: prov, Spec: spec, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv)
			resp, err := http.Get(hs.URL + PathStats)
			if err != nil {
				t.Fatal(err)
			}
			var reply statsReply
			err = json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if reply.Store.ArenaBytes != want || reply.Store.HugePageBytes < 0 || reply.Store.HugePageBytes%rowmem.HugePage != 0 {
				t.Fatalf("%s, capacity %d: /v1/stats arena_bytes %d (want %d), hugepage_bytes %d", name, capacity, reply.Store.ArenaBytes, want, reply.Store.HugePageBytes)
			}
			var expo strings.Builder
			if err := reg.WriteExposition(&expo); err != nil {
				t.Fatal(err)
			}
			if line := fmt.Sprintf("\nmarl_exp_store_arena_bytes %v\n", float64(want)); !strings.Contains(expo.String(), line) {
				t.Fatalf("%s, capacity %d: /metrics lacks %q", name, capacity, line)
			}
			if !strings.Contains(expo.String(), "\nmarl_exp_store_hugepage_bytes ") {
				t.Fatalf("%s, capacity %d: /metrics lacks marl_exp_store_hugepage_bytes", name, capacity)
			}
			hs.Close()
			srv.Close()
		}
	}
}
