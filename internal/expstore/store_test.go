package expstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"marlperf/internal/f64le"
	"marlperf/internal/replay"
)

func testSpec(capacity int) replay.Spec {
	return replay.Spec{NumAgents: 2, ObsDims: []int{3, 4}, ActDim: 2, Capacity: capacity}
}

// rowForSeq derives a self-checking row: every float is a function of the
// global sequence number, so recovery tests can verify content without
// keeping a copy.
func rowForSeq(layout replay.RowLayout, seq uint64) []float64 {
	row := make([]float64, layout.Stride())
	for i := range row {
		row[i] = float64(seq)*1000 + float64(i)
	}
	return row
}

// appendSeqs appends rows [from, to) as one-row batches of actor "t", row
// seq as batch seq+1, so segments seal at exactly SegmentRows rows.
func appendSeqs(t *testing.T, s *Store, from, to uint64) {
	t.Helper()
	for seq := from; seq < to; seq++ {
		appendBatch(t, s, "t", seq+1, rowForSeq(s.Layout(), seq))
	}
}

// appendBatch appends rows (whole rows of s's stride) as actor's batch seq,
// through the append frame a server would have received.
func appendBatch(t testing.TB, s *Store, actor string, seq uint64, rows []float64) {
	t.Helper()
	stride := s.Layout().Stride()
	b := Batch{ActorID: actor, BatchSeq: seq, Rows: rows, N: len(rows) / stride}
	if err := s.Append(b, EncodeAppend(nil, b, stride)); err != nil {
		t.Fatalf("appending %s's batch %d: %v", actor, seq, err)
	}
}

// verifyWindow checks that the store's sampleable window holds exactly the
// rows [base, base+len) with self-checking content.
func verifyWindow(t *testing.T, s *Store, wantBase uint64, wantLen int) {
	t.Helper()
	if got := s.RowCount(); got != wantLen {
		t.Fatalf("RowCount = %d, want %d", got, wantLen)
	}
	if got := s.Stats().Base; got != wantBase {
		t.Fatalf("Base = %d, want %d", got, wantBase)
	}
	stride := s.Layout().Stride()
	idx := make([]int, wantLen)
	for i := range idx {
		idx[i] = i
	}
	rows := make([]float64, wantLen*stride)
	s.mu.RLock()
	s.ring.GatherPacked(idx, rows)
	s.mu.RUnlock()
	for i := 0; i < wantLen; i++ {
		want := rowForSeq(s.Layout(), wantBase+uint64(i))
		got := rows[i*stride : (i+1)*stride]
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d (seq %d) float %d = %v, want %v", i, wantBase+uint64(i), j, got[j], want[j])
			}
		}
	}
}

func TestStoreAppendSampleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testSpec(64), Options{SegmentRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendSeqs(t, s, 0, 40)
	verifyWindow(t, s, 0, 40)

	// A uniform draw over the window, gathered as the server replies,
	// returns rows matching their indices.
	plan := replay.SamplePlan{Strategy: replay.PlanUniform}
	idx, rows := drawServed(t, s, plan, 10, 7)
	stride := s.Layout().Stride()
	for k, i := range idx {
		want := rowForSeq(s.Layout(), uint64(i))
		got := rows[k*stride : (k+1)*stride]
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("sampled row %d (index %d): float %d = %v, want %v", k, i, j, got[j], want[j])
			}
		}
	}
}

func TestStoreRingEvictionKeepsInsertionOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testSpec(32), Options{SegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendSeqs(t, s, 0, 100) // wraps the 32-row ring three times
	verifyWindow(t, s, 68, 32)
}

func TestStoreRetiresDeadSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testSpec(32), Options{SegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendSeqs(t, s, 0, 200)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".xpk") {
			segs = append(segs, e.Name())
		}
	}
	// Window is [168,200): rows 168.. live in segments based at 168, 176,
	// 184, 192 plus the active one at 200 — everything older must be gone.
	maxLive := 1 + (32+8-1)/8 + 1
	if len(segs) > maxLive {
		t.Fatalf("%d segments on disk after retirement, want ≤%d: %v", len(segs), maxLive, segs)
	}
	st := s.Stats()
	if st.Total != 200 || st.Rows != 32 || st.Base != 168 {
		t.Fatalf("stats %+v", st)
	}
	if st.DiskRows < st.Rows {
		t.Fatalf("disk holds %d rows, fewer than the %d sampleable", st.DiskRows, st.Rows)
	}
}

func TestStoreReopenRestoresWindowAndContinues(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(32)
	s, err := Open(dir, spec, Options{SegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, s, 0, 50)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, spec, Options{SegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	verifyWindow(t, s2, 18, 32)

	// Appends continue the global sequence seamlessly.
	appendSeqs(t, s2, 50, 70)
	verifyWindow(t, s2, 38, 32)
}

func TestStoreRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(64)
	s, err := Open(dir, spec, Options{SegmentRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, s, 0, 20)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-frame: cut the single segment mid-record.
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.xpk"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("glob: %v %v", paths, err)
	}
	info, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(paths[0], info.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, spec, Options{SegmentRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The torn batch of row 19 is dropped whole; rows 0..18 survive intact.
	verifyWindow(t, s2, 0, 19)
	// Appends resume at the recovered sequence.
	appendSeqs(t, s2, 19, 25)
	verifyWindow(t, s2, 0, 25)
}

func TestStoreRecoveryRejectsDamagedSealedSegment(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(64)
	s, err := Open(dir, spec, Options{SegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, s, 0, 30) // several sealed segments + active
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.xpk"))
	if err != nil || len(paths) < 2 {
		t.Fatalf("glob: %v %v", paths, err)
	}
	// Bit-flip a record payload in the FIRST (sealed, interior) segment.
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-20] ^= 0x10
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, spec, Options{SegmentRows: 8}); err == nil {
		t.Fatal("damaged sealed segment accepted")
	}
}

// A record is stamped with its first row's sequence outside its frame's
// CRC: one that does not start where the previous record ended is refused,
// in the newest segment too, rather than truncated as a torn tail.
func TestStoreRecoveryRejectsOutOfOrderRecord(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(64)
	s, err := Open(dir, spec, Options{SegmentRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, s, 0, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "seg-000000000000.xpk")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The last record is its 8-byte seq and the frame of one row.
	stride := s.Layout().Stride()
	last := len(data) - 8 - (AppendHeaderLen(1) + 8*stride + 4)
	data[last] = 7 // row 2's record now claims seq 7
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, spec, Options{SegmentRows: 100}); err == nil || !strings.Contains(err.Error(), "starts at seq 7, want 2") {
		t.Fatalf("reopening with an out-of-order record: %v", err)
	}
}

func TestStoreRecoveryDropsTornHeaderSegment(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(64)
	s, err := Open(dir, spec, Options{SegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, s, 0, 16) // exactly two sealed segments
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash right after rotation can leave a new segment with a short
	// header. Recovery must drop it and resume from the sealed chain.
	torn := filepath.Join(dir, "seg-000000000016.xpk")
	if err := os.WriteFile(torn, []byte("MX"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, spec, Options{SegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	verifyWindow(t, s2, 0, 16)
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn-header segment not removed: %v", err)
	}
	appendSeqs(t, s2, 16, 20)
	verifyWindow(t, s2, 0, 20)
}

// traceRecorder captures (addr, size) accesses like the cache simulator.
type traceRecorder struct {
	addrs []uint64
	sizes []int
}

func (tr *traceRecorder) Access(addr uint64, size int) {
	tr.addrs = append(tr.addrs, addr)
	tr.sizes = append(tr.sizes, size)
}

// drawServed draws n indices over s's window with plan and seed, and gathers
// their rows as marl-replayd serves a sample: SamplePlan.FillIndices, then
// Store.GatherEncodeLE. It returns the indices and the decoded rows.
func drawServed(t *testing.T, s *Store, plan replay.SamplePlan, n int, seed int64) ([]int, []float64) {
	t.Helper()
	idx := make([]int, n)
	if err := plan.FillIndices(idx, s.RowCount(), seed); err != nil {
		t.Fatal(err)
	}
	encoded := make([]byte, n*s.Layout().Stride()*8)
	s.GatherEncodeLE(idx, encoded)
	rows := make([]float64, n*s.Layout().Stride())
	f64le.Get(rows, encoded)
	return idx, rows
}

// Served locality sampling must emit contiguous address runs: the whole
// point of a locality plan is that neighbor runs stream sequential rows.
func TestStoreLocalitySamplingTraceIsContiguous(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(256)
	s, err := Open(dir, spec, Options{SegmentRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendSeqs(t, s, 0, 200)

	rec := &traceRecorder{}
	s.SetTracer(rec)
	plan := replay.SamplePlan{Strategy: replay.PlanLocality, Neighbors: 16, Refs: 4}
	n := 64
	drawServed(t, s, plan, n, 3)
	if len(rec.addrs) != n {
		t.Fatalf("trace has %d accesses, want %d", len(rec.addrs), n)
	}
	rowBytes := uint64(s.Layout().Stride() * 8)
	for k := 1; k < n; k++ {
		if k%plan.Neighbors == 0 {
			continue // new reference point: jump allowed
		}
		// Within a run, consecutive samples touch adjacent rows (modulo one
		// ring wrap, which appears as a jump back to the region base).
		delta := int64(rec.addrs[k]) - int64(rec.addrs[k-1])
		if delta != int64(rowBytes) && delta != -int64(rowBytes)*int64(spec.Capacity-1) {
			t.Fatalf("access %d not contiguous: addr delta %d, want %d", k, delta, rowBytes)
		}
	}
}

func TestSourceMatchesDirectKVGather(t *testing.T) {
	spec := testSpec(128)
	ring := NewRing(spec)
	src, err := NewSource(ring, replay.SamplePlan{Strategy: replay.PlanUniform})
	if err != nil {
		t.Fatal(err)
	}
	kv := replay.NewKVBuffer(spec)

	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 100; step++ {
		obs := [][]float64{randVec(rng, 3), randVec(rng, 4)}
		act := [][]float64{randVec(rng, 2), randVec(rng, 2)}
		nxt := [][]float64{randVec(rng, 3), randVec(rng, 4)}
		rew := []float64{rng.NormFloat64(), rng.NormFloat64()}
		done := []float64{0, float64(step % 2)}
		if err := src.Add(obs, act, rew, nxt, done); err != nil {
			t.Fatal(err)
		}
		kv.Add(obs, act, rew, nxt, done)
	}
	if n, _ := src.Len(); n != 100 {
		t.Fatalf("source Len = %d, want 100", n)
	}

	const batch = 32
	dst := []*replay.AgentBatch{
		replay.NewAgentBatch(batch, 3, 2),
		replay.NewAgentBatch(batch, 4, 2),
	}
	idx, err := src.SampleBatch(batch, 99, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Gathering the same indices from the KV table must agree bit-for-bit:
	// before any ring wrap, insertion order equals KV slot order.
	want := []*replay.AgentBatch{
		replay.NewAgentBatch(batch, 3, 2),
		replay.NewAgentBatch(batch, 4, 2),
	}
	kv.GatherAll(idx, want)
	for a := 0; a < 2; a++ {
		for i := range want[a].Obs.Data {
			if dst[a].Obs.Data[i] != want[a].Obs.Data[i] {
				t.Fatalf("agent %d obs diverges from KV gather", a)
			}
		}
		for i := range want[a].Rew.Data {
			if dst[a].Rew.Data[i] != want[a].Rew.Data[i] || dst[a].Done.Data[i] != want[a].Done.Data[i] {
				t.Fatalf("agent %d scalars diverge from KV gather", a)
			}
		}
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
