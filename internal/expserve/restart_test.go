package expserve

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"marlperf/internal/expstore"
)

// TestServerRestartMidIngestNoDuplicates kills the experience server between
// acknowledged batches and restarts it — same durable store, same port —
// while a sink keeps appending. The client's retry loop must ride out the
// outage, and the recovered store must hold every shipped row exactly once:
// acked batches survive the kill (they were flushed before the ack), and the
// batches retried across the restart land without duplication.
func TestServerRestartMidIngestNoDuplicates(t *testing.T) {
	spec := testSpec(4096)
	dir := t.TempDir()
	storePath := filepath.Join(dir, "store")

	openStore := func() *expstore.Store {
		t.Helper()
		st, err := expstore.Open(storePath, spec, expstore.Options{SegmentRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	serve := func(st *expstore.Store, addr string) (*Server, string, func() error) {
		t.Helper()
		srv, err := NewServer(ServerConfig{Provider: st, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		bound, shutdown, err := srv.ListenAndServe(addr)
		if err != nil {
			t.Fatal(err)
		}
		return srv, bound, shutdown
	}

	st := openStore()
	_, addr, shutdown := serve(st, "127.0.0.1:0")

	c := NewClient(addr, ClientOptions{
		Timeout:    2 * time.Second,
		Attempts:   200,
		BaseDelay:  2 * time.Millisecond,
		MaxDelay:   25 * time.Millisecond,
		JitterSeed: 1,
	})
	sink, err := NewRemoteSink(c, "actor-restart", spec)
	if err != nil {
		t.Fatal(err)
	}
	sink.MaxBatchRows = 8

	rng := rand.New(rand.NewSource(17))
	addRows := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			obs, act, rew, nxt, done := step(rng)
			if err := sink.Add(obs, act, rew, nxt, done); err != nil {
				t.Fatalf("add: %v", err)
			}
		}
	}

	// Phase 1: three full batches land and are acked (hence durably flushed).
	addRows(24)

	// Kill the server between acked batches and close its store handle.
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same address after a real outage window, reopening the
	// same on-disk store. Binding can transiently fail right after the old
	// listener closes, so retry briefly.
	restarted := make(chan struct{})
	go func() {
		defer close(restarted)
		time.Sleep(150 * time.Millisecond)
		st2 := openStore()
		deadline := time.Now().Add(5 * time.Second)
		for {
			srv2, err := NewServer(ServerConfig{Provider: st2, Spec: spec})
			if err != nil {
				t.Error(err)
				return
			}
			if _, shutdown2, err := srv2.ListenAndServe(addr); err == nil {
				t.Cleanup(func() { _ = shutdown2(); _ = st2.Close() })
				return
			} else if time.Now().After(deadline) {
				t.Errorf("could not rebind %s: %v", addr, err)
				return
			}
			_ = srv2.Close()
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Phase 2: the next three batches hit the dead server first; the retry
	// loop must carry them across the restart without the test intervening.
	addRows(24)
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush across restart: %v", err)
	}
	<-restarted
	if t.Failed() {
		t.FailNow()
	}

	// Exactly-once accounting: 48 rows shipped, 48 rows stored.
	stats, err := c.ServiceStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 48 || stats.Total != 48 {
		t.Fatalf("store holds rows=%d total=%d after restart, want exactly 48 (no loss, no duplicates)", stats.Rows, stats.Total)
	}
}

// TestClientTotalDeadline proves the cumulative retry budget: against a
// server that only ever answers 503, a client with a generous attempt count
// but a tight TotalDeadline must give up once the next backoff sleep would
// overrun it, surfacing both the deadline and the underlying cause.
func TestClientTotalDeadline(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer down.Close()

	c := NewClient(down.URL, ClientOptions{
		Timeout:       time.Second,
		Attempts:      10_000,
		BaseDelay:     10 * time.Millisecond,
		MaxDelay:      20 * time.Millisecond,
		JitterSeed:    7,
		TotalDeadline: 150 * time.Millisecond,
	})
	start := time.Now()
	_, err := c.ServiceStats()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ServiceStats against a 503-only server succeeded")
	}
	if !strings.Contains(err.Error(), "total retry deadline") || !strings.Contains(err.Error(), "503") {
		t.Fatalf("error %q does not name the deadline and the underlying 503", err)
	}
	// The pre-sleep check means we never sleep past the deadline; allow slack
	// for the in-flight attempt itself.
	if elapsed > 2*time.Second {
		t.Fatalf("client took %v to give up on a %v deadline", elapsed, 150*time.Millisecond)
	}

	// Zero deadline leaves Attempts as the only bound (the seed behaviour).
	c2 := NewClient(down.URL, ClientOptions{
		Timeout: time.Second, Attempts: 3, BaseDelay: time.Millisecond, JitterSeed: 7,
	})
	if _, err := c2.ServiceStats(); err == nil || strings.Contains(err.Error(), "total retry deadline") {
		t.Fatalf("attempts-bounded failure should not mention the deadline: %v", err)
	}
}
