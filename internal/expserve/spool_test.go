package expserve

// Actor-side spool and durable-cursor coverage, including a real-signal
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
	"marlperf/internal/f64le"
	"marlperf/internal/replay"
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

// spoolKillChildMain serves the experience service over a durable store,
// which keeps the dedup cursors with the rows, until killed. Binding retries briefly so a
// restarted child can win the port back from a freshly killed sibling.
func spoolKillChildMain(dir, addr string) {
	st, err := expstore.Open(filepath.Join(dir, "store"), testSpec(100000), expstore.Options{SegmentRows: 64})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv, err := NewServer(ServerConfig{Provider: st, Spec: testSpec(100000)})
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

	// Restart over the same store, then drain.
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

// durableServer serves the store in dir until the returned stop; each call
// reopens it, as a restarted marl-replayd -dir does.
func durableServer(t *testing.T, dir string, spec replay.Spec, opts expstore.Options) (*Client, *expstore.Store, func()) {
	t.Helper()
	st, err := expstore.Open(dir, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Provider: st, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	return fastClient(hs.URL), st, func() { hs.Close(); srv.Close(); st.Close() }
}

// TestDedupLogSurvivesRestart: the durable idempotency cursor makes
// redelivery across a server restart a no-op — the window the in-memory
// map could not cover. The store's segments are the log: each record is an
// acknowledged batch, actor and sequence included.
func TestDedupLogSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(4096)
	opts := expstore.Options{SegmentRows: 64}

	c1, _, stop1 := durableServer(t, dir, spec, opts)
	sink1, err := NewRemoteSink(c1, "actor-dedup", spec)
	if err != nil {
		t.Fatal(err)
	}
	sink1.MaxBatchRows = 8
	rng := rand.New(rand.NewSource(13))
	addRows(t, sink1, rng, 16) // seqs 1,2 applied and recorded
	stop1()
	// A dedup.log left beside the segments by an older build is ignored.
	if err := os.WriteFile(filepath.Join(dir, "dedup.log"), []byte(`{"actor":"actor-dedup","seq":9,"base":0,"n":8}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, _, stop2 := durableServer(t, dir, spec, opts)
	defer stop2()

	// A fresh sink under the same ID would reuse seq 1 — exactly the
	// collision the stats cursor exists to prevent. Fast-forward, then
	// prove a redelivered duplicate of an old seq is dropped while new
	// data lands.
	st2 := waitStats(t, c2, 5*time.Second)
	if st2.Actors["actor-dedup"] != 2 {
		t.Fatalf("restarted server reports cursor %d, want 2 (from the segments)", st2.Actors["actor-dedup"])
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

// TestCursorOutlivesItsSegment: an actor's cursor survives the retirement
// of the segment that held its only batch, because each segment's header
// carries every cursor as of its open.
func TestCursorOutlivesItsSegment(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(32)
	opts := expstore.Options{SegmentRows: 8}

	c1, _, stop1 := durableServer(t, dir, spec, opts)
	rng := rand.New(rand.NewSource(31))
	sinkA, err := NewRemoteSink(c1, "actor-a", spec)
	if err != nil {
		t.Fatal(err)
	}
	sinkA.MaxBatchRows = 4
	addRows(t, sinkA, rng, 4) // actor-a's seq 1: rows 0–3
	sinkB, err := NewRemoteSink(c1, "actor-b", spec)
	if err != nil {
		t.Fatal(err)
	}
	sinkB.MaxBatchRows = 8
	addRows(t, sinkB, rng, 48) // more than the 32-row capacity
	stop1()
	if _, err := os.Stat(filepath.Join(dir, "seg-000000000000.xpk")); !os.IsNotExist(err) {
		t.Fatalf("the segment holding actor-a's batch was not retired: %v", err)
	}

	c2, _, stop2 := durableServer(t, dir, spec, opts)
	defer stop2()
	st := waitStats(t, c2, 5*time.Second)
	if st.Actors["actor-a"] != 1 || st.Actors["actor-b"] != 6 || st.Total != 52 {
		t.Fatalf("after restart: cursors %v, total %d; want actor-a 1, actor-b 6, total 52", st.Actors, st.Total)
	}
	redeliver, err := NewRemoteSink(c2, "actor-a", spec)
	if err != nil {
		t.Fatal(err)
	}
	redeliver.MaxBatchRows = 4
	addRows(t, redeliver, rng, 4) // seq 1 again
	if st := waitStats(t, c2, 5*time.Second); st.Total != 52 || st.Actors["actor-a"] != 1 {
		t.Fatalf("redelivered batch 1: total %d, cursor %d; want it acknowledged as a duplicate (total 52, cursor 1)", st.Total, st.Actors["actor-a"])
	}
}

// TestTornBatchRedeliveryAppliesOnlyMissingRows reproduces the worst
// SIGKILL window: the kill lands while batch 2's record is being written,
// so the segment ends inside its frame while the batch was never acked —
// the actor will redeliver it in full. Recovery must drop the torn frame
// whole and park the cursor at 1, and redelivering batches 2 and 3 must
// land every row exactly once.
func TestTornBatchRedeliveryAppliesOnlyMissingRows(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(4096)
	opts := expstore.Options{SegmentRows: 64}
	stride := replay.NewRowLayout(spec).Stride()

	// The rows of batches 1, 2 and 3.
	rng := rand.New(rand.NewSource(29))
	want := make([]float64, 24*stride)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	add := func(sink *RemoteSink, from, to int) {
		t.Helper()
		for r := from; r < to; r++ {
			if err := addPacked(sink, want[r*stride:(r+1)*stride]); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Batches 1 and 2 land through a real server.
	c1, _, stop1 := durableServer(t, dir, spec, opts)
	sink1, err := NewRemoteSink(c1, "torn", spec)
	if err != nil {
		t.Fatal(err)
	}
	sink1.MaxBatchRows = 8
	add(sink1, 0, 16)
	stop1()

	// Forge the kill's disk state: the segment ends halfway into batch 2's
	// frame.
	seg := filepath.Join(dir, "seg-000000000000.xpk")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := int64(expstore.AppendHeaderLen(len("torn")) + 8*8*stride + 4)
	if err := os.Truncate(seg, info.Size()-frameLen/2); err != nil {
		t.Fatal(err)
	}

	// Recovery reports cursor 1 and batch 1's rows only, and a second
	// restart over the truncated segment reaches the same verdict.
	for i := 0; i < 2; i++ {
		c, _, stop := durableServer(t, dir, spec, opts)
		stn := waitStats(t, c, 5*time.Second)
		stop()
		if stn.Actors["torn"] != 1 || stn.Total != 8 {
			t.Fatalf("restart %d: cursor=%d total=%d, want cursor 1 total 8", i, stn.Actors["torn"], stn.Total)
		}
	}

	// Redeliver batch 2 in full plus a fresh batch 3: all 24 rows land,
	// once each, in order.
	c2, st, stop2 := durableServer(t, dir, spec, opts)
	defer stop2()
	sink2, err := NewRemoteSink(c2, "torn", spec)
	if err != nil {
		t.Fatal(err)
	}
	sink2.MaxBatchRows = 8
	sink2.SkipTo(waitStats(t, c2, 5*time.Second).Actors["torn"])
	add(sink2, 8, 24)
	fin := waitStats(t, c2, 5*time.Second)
	if fin.Rows != 24 || fin.Total != 24 || fin.Actors["torn"] != 3 {
		t.Fatalf("after redelivery: rows=%d total=%d cursor=%d, want 24/24/3", fin.Rows, fin.Total, fin.Actors["torn"])
	}
	idx := make([]int, 24)
	for i := range idx {
		idx[i] = i
	}
	encoded := make([]byte, 24*stride*8)
	st.GatherEncodeLE(idx, encoded)
	got := make([]float64, 24*stride)
	f64le.Get(got, encoded)
	sameRowBits(t, "stored rows", got, want)
}
