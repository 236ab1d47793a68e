package expserve

// Actor-side spool and durable-dedup coverage, including a real-signal
// drain test: a child process (this test binary re-executed with an env
// guard) serves the experience service until the parent SIGKILLs it
// mid-ingest; the actor sink rides out the outage by spooling to disk,
// the parent restarts the service over the same store, and the drained
// result must hold every produced row exactly once.

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"marlperf/internal/expstore"
	"marlperf/internal/telemetry"
)

const spoolKillChildEnv = "EXPSERVE_KILL_CHILD_DIR"
const spoolKillChildAddrEnv = "EXPSERVE_KILL_CHILD_ADDR"

// TestMain runs the experience-server child when re-executed with the env
// guard, and the normal test binary otherwise.
func TestMain(m *testing.M) {
	if dir := os.Getenv(spoolKillChildEnv); dir != "" {
		spoolKillChildMain(dir, os.Getenv(spoolKillChildAddrEnv))
		return
	}
	os.Exit(m.Run())
}

// spoolKillChildMain serves the experience service over a durable store
// with a durable dedup log until killed. Binding retries briefly so a
// restarted child can win the port back from a freshly killed sibling.
func spoolKillChildMain(dir, addr string) {
	st, err := expstore.Open(filepath.Join(dir, "store"), testSpec(100000), expstore.Options{SegmentRows: 64})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv, err := NewServer(ServerConfig{
		Provider:     st,
		Spec:         testSpec(100000),
		DedupLogPath: filepath.Join(dir, "dedup.log"),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			go func() { _ = http.Serve(ln, srv) }()
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {} // serve until SIGKILLed
}

// spoolClient is tuned for fast failure: few attempts, tiny backoff, an
// aggressive breaker — the shape an actor with a spool wants.
func spoolClient(addr string, reg *telemetry.Registry) *Client {
	return NewClient(addr, ClientOptions{
		Timeout:          2 * time.Second,
		Attempts:         2,
		BaseDelay:        time.Millisecond,
		MaxDelay:         10 * time.Millisecond,
		JitterSeed:       3,
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
		Registry:         reg,
	})
}

func addRows(t *testing.T, sink *RemoteSink, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		obs, act, rew, nxt, done := step(rng)
		if err := sink.Add(obs, act, rew, nxt, done); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
}

func waitStats(t *testing.T, c *Client, timeout time.Duration) ServiceStats {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.ServiceStats()
		if err == nil {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never answered stats: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSpoolDrainAcrossServerSIGKILL is the satellite scenario: SIGKILL
// marl-replayd's server mid-ingest, keep producing (batches divert to the
// spool), restart over the same store, drain, and assert row-count
// equality — no loss, no duplicates.
func TestSpoolDrainAcrossServerSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec kill test skipped in -short")
	}
	dir := t.TempDir()

	// Reserve a port for the child (closed before the child binds it; the
	// child retries binding to absorb the handoff race).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	startChild := func() *exec.Cmd {
		t.Helper()
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), spoolKillChildEnv+"="+dir, spoolKillChildAddrEnv+"="+addr)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}

	child := startChild()
	defer func() { child.Process.Kill(); child.Wait() }()

	reg := telemetry.NewRegistry()
	c := spoolClient(addr, reg)
	waitStats(t, c, 15*time.Second)

	sink, err := NewRemoteSink(c, "actor-kill", testSpec(100000))
	if err != nil {
		t.Fatal(err)
	}
	sink.MaxBatchRows = 8
	if err := sink.EnableSpool(SpoolOptions{Dir: filepath.Join(dir, "spool"), Registry: reg}); err != nil {
		t.Fatal(err)
	}
	var spooled, drained int
	sink.OnSpool = func(queued int, err error) { spooled++ }
	sink.OnDrain = func(batches int) { drained += batches }

	// Phase 1: three batches land and are acked (rows + dedup cursor
	// durably flushed before each ack).
	rng := rand.New(rand.NewSource(23))
	addRows(t, sink, rng, 24)

	// SIGKILL the server between acked batches: a real kill, no shutdown
	// path runs.
	if err := child.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	child.Wait()

	// Phase 2: production continues into the outage; every batch must
	// divert to the spool without an error reaching the rollout loop.
	addRows(t, sink, rng, 24)
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush during outage: %v", err)
	}
	if got := sink.SpoolLen(); got != 3 {
		t.Fatalf("spool holds %d batches during outage, want 3", got)
	}
	if spooled != 3 {
		t.Fatalf("OnSpool saw %d diversions, want 3", spooled)
	}

	// Restart over the same store and dedup log, then drain.
	child2 := startChild()
	defer func() { child2.Process.Kill(); child2.Wait() }()
	waitStats(t, c, 15*time.Second)
	if err := sink.DrainSpool(); err != nil {
		t.Fatalf("drain after restart: %v", err)
	}
	if got := sink.SpoolLen(); got != 0 {
		t.Fatalf("spool still holds %d batches after drain", got)
	}
	if drained != 3 {
		t.Fatalf("OnDrain saw %d batches, want 3", drained)
	}

	// Post-recovery production flows normally again.
	addRows(t, sink, rng, 8)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	// Exactly-once accounting: 56 rows produced, 56 rows stored, and the
	// server's cursor for this actor matches the sink's.
	st := waitStats(t, c, 5*time.Second)
	if st.Rows != 56 || st.Total != 56 {
		t.Fatalf("store holds rows=%d total=%d, want exactly 56 (no loss, no duplicates)", st.Rows, st.Total)
	}
	if st.Actors["actor-kill"] != sink.batchSeq {
		t.Fatalf("server cursor %d != sink seq %d", st.Actors["actor-kill"], sink.batchSeq)
	}

	// Spool-file leftovers should be gone.
	if files, _ := filepath.Glob(filepath.Join(dir, "spool", "spool-*")); len(files) != 0 {
		t.Fatalf("drained spool left files behind: %v", files)
	}
}

// TestSpoolAdoptionAcrossSinkRestart proves a crashed actor's successor
// (same ID, same spool dir) adopts the backlog: sequence numbering
// continues past the spooled batches and the drain ships them ahead of
// new data, in order.
func TestSpoolAdoptionAcrossSinkRestart(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(4096)

	// Incarnation 1 talks to a dead address: everything spools.
	dead := spoolClient("127.0.0.1:1", nil)
	sink1, err := NewRemoteSink(dead, "actor-adopt", spec)
	if err != nil {
		t.Fatal(err)
	}
	sink1.MaxBatchRows = 4
	if err := sink1.EnableSpool(SpoolOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	addRows(t, sink1, rng, 12) // 3 batches, all spooled
	if sink1.SpoolLen() != 3 || sink1.batchSeq != 3 {
		t.Fatalf("incarnation 1: spool=%d seq=%d, want 3/3", sink1.SpoolLen(), sink1.batchSeq)
	}

	// Incarnation 2 starts fresh over the same spool dir, now with a live
	// server.
	st, err := expstore.Open(filepath.Join(t.TempDir(), "store"), spec, expstore.Options{SegmentRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := NewServer(ServerConfig{Provider: st, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer srv.Close()
	defer hs.Close()

	c := spoolClient(hs.URL, nil)
	sink2, err := NewRemoteSink(c, "actor-adopt", spec)
	if err != nil {
		t.Fatal(err)
	}
	sink2.MaxBatchRows = 4
	if err := sink2.EnableSpool(SpoolOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if sink2.batchSeq != 3 {
		t.Fatalf("adoption should fast-forward seq to 3, got %d", sink2.batchSeq)
	}

	// New data flushes drain the backlog first, then ship seq 4.
	addRows(t, sink2, rng, 4)
	if err := sink2.Flush(); err != nil {
		t.Fatal(err)
	}
	stats := waitStats(t, c, 5*time.Second)
	if stats.Rows != 16 || stats.Total != 16 {
		t.Fatalf("rows=%d total=%d after adoption drain, want exactly 16", stats.Rows, stats.Total)
	}
	if stats.Actors["actor-adopt"] != 4 {
		t.Fatalf("server cursor %d, want 4", stats.Actors["actor-adopt"])
	}

	// A sink under a different actor ID must refuse a foreign spool.
	dir2 := t.TempDir()
	sinkA, err := NewRemoteSink(dead, "actor-adopt", spec)
	if err != nil {
		t.Fatal(err)
	}
	sinkA.MaxBatchRows = 4
	if err := sinkA.EnableSpool(SpoolOptions{Dir: dir2}); err != nil {
		t.Fatal(err)
	}
	addRows(t, sinkA, rng, 4)
	if sinkA.SpoolLen() != 1 {
		t.Fatalf("foreign-spool setup: backlog = %d, want 1", sinkA.SpoolLen())
	}
	sink3, err := NewRemoteSink(c, "other-actor", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink3.EnableSpool(SpoolOptions{Dir: dir2}); err == nil || !strings.Contains(err.Error(), "belongs to actor") {
		t.Fatalf("foreign spool adoption should fail naming the owner, got: %v", err)
	}
}

// TestSpoolFullAppliesBackpressure: a full spool fails the sink instead of
// filling the disk.
func TestSpoolFullAppliesBackpressure(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(4096)
	dead := spoolClient("127.0.0.1:1", nil)
	sink, err := NewRemoteSink(dead, "actor-full", spec)
	if err != nil {
		t.Fatal(err)
	}
	sink.MaxBatchRows = 4
	if err := sink.EnableSpool(SpoolOptions{Dir: dir, MaxBytes: 800}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	addRows(t, sink, rng, 4) // first batch fits (a 4-row frame is ~750 bytes)
	var lastErr error
	for i := 0; i < 4 && lastErr == nil; i++ {
		obs, act, rew, nxt, done := step(rng)
		lastErr = sink.Add(obs, act, rew, nxt, done)
	}
	if lastErr == nil || !strings.Contains(lastErr.Error(), "spool full") {
		t.Fatalf("overflowing the spool should surface 'spool full', got: %v", lastErr)
	}
}

// TestDedupLogSurvivesRestart: the durable idempotency cursor makes
// redelivery across a server restart a no-op — the window the in-memory
// map could not cover.
func TestDedupLogSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(4096)
	storePath := filepath.Join(dir, "store")
	dedupPath := filepath.Join(dir, "dedup.log")

	serve := func() (*Client, func()) {
		t.Helper()
		st, err := expstore.Open(storePath, spec, expstore.Options{SegmentRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{Provider: st, Spec: spec, DedupLogPath: dedupPath})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		return fastClient(hs.URL), func() { hs.Close(); srv.Close(); st.Close() }
	}

	c1, stop1 := serve()
	sink1, err := NewRemoteSink(c1, "actor-dedup", spec)
	if err != nil {
		t.Fatal(err)
	}
	sink1.MaxBatchRows = 8
	rng := rand.New(rand.NewSource(13))
	addRows(t, sink1, rng, 16) // seqs 1,2 applied and recorded
	stop1()

	c2, stop2 := serve()
	defer stop2()

	// A fresh sink under the same ID would reuse seq 1 — exactly the
	// collision the stats cursor exists to prevent. Fast-forward, then
	// prove a redelivered duplicate of an old seq is dropped while new
	// data lands.
	st2 := waitStats(t, c2, 5*time.Second)
	if st2.Actors["actor-dedup"] != 2 {
		t.Fatalf("restarted server reports cursor %d, want 2 (from dedup log)", st2.Actors["actor-dedup"])
	}

	sink2, err := NewRemoteSink(c2, "actor-dedup", spec)
	if err != nil {
		t.Fatal(err)
	}
	sink2.MaxBatchRows = 8
	// Without SkipTo: seq restarts at 1 → server must answer dup, rows
	// unchanged.
	addRows(t, sink2, rng, 8)
	if st := waitStats(t, c2, 5*time.Second); st.Rows != 16 || st.Total != 16 {
		t.Fatalf("stale-seq redelivery changed the store: rows=%d total=%d, want 16", st.Rows, st.Total)
	}

	// With SkipTo: the successor resumes past the cursor and lands.
	sink3, err := NewRemoteSink(c2, "actor-dedup", spec)
	if err != nil {
		t.Fatal(err)
	}
	sink3.MaxBatchRows = 8
	sink3.SkipTo(st2.Actors["actor-dedup"])
	addRows(t, sink3, rng, 8)
	if st := waitStats(t, c2, 5*time.Second); st.Rows != 24 || st.Total != 24 {
		t.Fatalf("resumed sink: rows=%d total=%d, want 24", st.Rows, st.Total)
	}
	if st := waitStats(t, c2, 5*time.Second); st.Actors["actor-dedup"] != 3 {
		t.Fatalf("cursor = %d after resume, want 3", st.Actors["actor-dedup"])
	}
}

// TestTornBatchRedeliveryAppliesOnlyMissingRows reproduces the worst
// SIGKILL window: the kill lands mid-Flush, so the store's own torn-tail
// recovery keeps a row-aligned prefix of the batch (here 5 of 8 rows) while
// the batch was never acked — the actor will redeliver it in full. The
// intent log must classify the batch as partially applied, park the cursor
// one short, and make the redelivery append only the missing suffix.
func TestTornBatchRedeliveryAppliesOnlyMissingRows(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(4096)
	storePath := filepath.Join(dir, "store")
	dedupPath := filepath.Join(dir, "dedup.log")

	serve := func() (*Client, func()) {
		t.Helper()
		st, err := expstore.Open(storePath, spec, expstore.Options{SegmentRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{Provider: st, Spec: spec, DedupLogPath: dedupPath})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		return fastClient(hs.URL), func() { hs.Close(); srv.Close(); st.Close() }
	}

	// Batch 1 (seq 1, 8 rows) lands normally through a real server.
	c1, stop1 := serve()
	sink1, err := NewRemoteSink(c1, "torn", spec)
	if err != nil {
		t.Fatal(err)
	}
	sink1.MaxBatchRows = 8
	rng := rand.New(rand.NewSource(29))
	addRows(t, sink1, rng, 8)
	stop1()

	// Forge the kill's disk state for batch 2: its intent went durable,
	// then the torn flush left only 5 of its 8 rows in the store.
	logF, err := os.OpenFile(dedupPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := logF.WriteString(`{"actor":"torn","seq":2,"base":8,"n":8}` + "\n"); err != nil {
		t.Fatal(err)
	}
	logF.Close()
	st, err := expstore.Open(storePath, spec, expstore.Options{SegmentRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, st.Stats().Stride)
	for i := 0; i < 5; i++ {
		if err := st.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Recovery must classify batch 2 as torn — cursor parked at 1, the
	// durable prefix kept — and a second restart over the same log must
	// reach the same verdict.
	for i := 0; i < 2; i++ {
		c, stop := serve()
		stn := waitStats(t, c, 5*time.Second)
		if stn.Actors["torn"] != 1 || stn.Total != 13 {
			stop()
			t.Fatalf("restart %d: cursor=%d total=%d, want cursor 1 total 13", i, stn.Actors["torn"], stn.Total)
		}
		stop()
	}

	// Redeliver batch 2 in full plus a fresh batch 3: only the 3 missing
	// rows of 2 and the 8 of 3 may land.
	c2, stop2 := serve()
	defer stop2()
	sink2, err := NewRemoteSink(c2, "torn", spec)
	if err != nil {
		t.Fatal(err)
	}
	sink2.MaxBatchRows = 8
	sink2.SkipTo(waitStats(t, c2, 5*time.Second).Actors["torn"])
	addRows(t, sink2, rng, 16)
	fin := waitStats(t, c2, 5*time.Second)
	if fin.Rows != 24 || fin.Total != 24 {
		t.Fatalf("after redelivery: rows=%d total=%d, want 24/24 (prefix duplicated or suffix lost)", fin.Rows, fin.Total)
	}
	if fin.Actors["torn"] != 3 {
		t.Fatalf("cursor=%d after redelivery, want 3", fin.Actors["torn"])
	}
}
