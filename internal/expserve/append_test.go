package expserve

// Tests for the append path's buffer reuse: the handler reads each frame
// into a pooled body, and decodeAppend hands the ingest writer rows that
// alias that body (or pooled scratch) instead of a fresh slice.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"marlperf/internal/expstore"
	"marlperf/internal/replay"
)

// refDecodeAppend is the decoder the append frame had before its payload
// went through f64le: one math.Float64frombits per value into a fresh
// slice, no aliasing. FuzzDecodeAppend compares the real decoder with it.
func refDecodeAppend(data []byte, stride int) (appendBatch, error) {
	var b appendBatch
	if len(data) < 12 || string(data[:4]) != appendMagic || binary.LittleEndian.Uint32(data[4:]) != wireVersion {
		return b, fmt.Errorf("bad prefix")
	}
	actorLen := int(binary.LittleEndian.Uint32(data[8:]))
	if actorLen < 1 || actorLen > 256 || len(data) < 12+actorLen+8+4+4+4 {
		return b, fmt.Errorf("bad actor")
	}
	off := 12
	b.ActorID = string(data[off : off+actorLen])
	off += actorLen
	b.BatchSeq = binary.LittleEndian.Uint64(data[off:])
	n := int(binary.LittleEndian.Uint32(data[off+8:]))
	gotStride := int(binary.LittleEndian.Uint32(data[off+12:]))
	off += 16
	if gotStride != stride || n < 0 || n > maxWireRows || len(data) != off+8*n*stride+4 {
		return b, fmt.Errorf("bad shape")
	}
	if crc32.ChecksumIEEE(data[:len(data)-4]) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return b, fmt.Errorf("bad crc")
	}
	b.N = n
	b.Rows = make([]float64, n*stride)
	for i := range b.Rows {
		b.Rows[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off+8*i:]))
	}
	return b, nil
}

// goldenRows is the payload of testdata/spool-0000000000000003.xpb, which
// the parent commit's encodeAppend wrote for actor "golden", seq 3.
func goldenRows(n, stride int) []float64 {
	rows := make([]float64, n*stride)
	for i := range rows {
		rows[i] = float64(i)*0.375 - 7.25
	}
	rows[1] = math.Inf(-1)
	rows[2] = math.Copysign(0, -1)
	rows[3] = math.SmallestNonzeroFloat64
	rows[4] = math.Float64frombits(0x7ff8000000000abc) // NaN with a payload
	return rows
}

func sameRowBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d floats, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: float %d is %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// FuzzDecodeAppend covers the one frame that is both parsed off the network
// and replayed from a disk spool. The decoder must agree with the reference
// — same verdict, same header fields, same float bits — wherever the frame
// sits in memory: at each of the eight byte offsets the payload lands on
// every alignment, so both the in-place view and the scratch decode run.
func FuzzDecodeAppend(f *testing.F) {
	const stride = 3
	rows := goldenRows(4, stride)
	for actorLen := 1; actorLen <= 9; actorLen++ {
		actor := "actor-xyz"[:actorLen]
		f.Add(encodeAppend(nil, appendBatch{ActorID: actor, BatchSeq: uint64(actorLen), Rows: rows, N: 4}, stride))
	}
	valid := encodeAppend(nil, appendBatch{ActorID: "a", BatchSeq: 1, Rows: rows, N: 4}, stride)
	f.Add(encodeAppend(nil, appendBatch{ActorID: "empty", BatchSeq: 2, N: 0}, stride))
	f.Add(valid[:len(valid)-1])
	f.Add(mutated(valid, func(b []byte) { b[len(b)/2] ^= 0x10 }))
	f.Add(mutated(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<30) }))
	f.Add(mutated(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[21:], 1<<19) }))
	f.Add([]byte(appendMagic))

	f.Fuzz(func(t *testing.T, frame []byte) {
		want, wantErr := refDecodeAppend(frame, stride)
		arena := make([]byte, len(frame)+8)
		var scratch []float64
		for shift := 0; shift < 8; shift++ {
			data := arena[shift : shift+len(frame)]
			copy(data, frame)
			got, err := decodeAppend(data, stride, &scratch)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("shift %d: decodeAppend err %v, reference err %v", shift, err, wantErr)
			}
			if err != nil {
				continue
			}
			if got.ActorID != want.ActorID || got.BatchSeq != want.BatchSeq || got.N != want.N {
				t.Fatalf("shift %d: header (%q, %d, %d), reference (%q, %d, %d)", shift,
					got.ActorID, got.BatchSeq, got.N, want.ActorID, want.BatchSeq, want.N)
			}
			sameRowBits(t, fmt.Sprintf("shift %d", shift), got.Rows, want.Rows)
			// Re-encoding what was decoded gives the frame back: the two
			// codecs are inverses on every accepted input.
			if again := encodeAppend(nil, got, stride); !bytes.Equal(again, frame) {
				t.Fatalf("shift %d: re-encoded frame differs from the input", shift)
			}
		}
	})
}

// ringRows copies a ring's retained rows, oldest first.
func ringRows(r *expstore.Ring) []float64 {
	var out []float64
	for i := 0; i < r.Len(); i++ {
		out = append(out, r.Row(i)...)
	}
	return out
}

// Two actors append through one server at once. Each batch's rows alias a
// pooled request body while the single ingest writer applies them, so a
// body recycled too early — or shared between two in-flight requests —
// shows up as a row in the ring that nobody sent (and as a race under
// -race). Rows are tagged (actor, batch, row) so every ring row can be
// traced back to the frame that carried it.
func TestConcurrentAppendersPooledBodies(t *testing.T) {
	const actors, batches = 2, 150
	spec := testSpec(actors * batches * 16)
	layout := replay.NewRowLayout(spec)
	stride := layout.Stride()
	ring := expstore.NewRing(spec)
	srv, err := NewServer(ServerConfig{Provider: ring, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer func() { hs.Close(); srv.Close() }()

	// Batch sizes cycle so pooled bodies are reused at other lengths, and
	// the two actor IDs put the payload on different alignments.
	ids := [actors]string{"act0", "actor-1"}
	rowsIn := func(b int) int { return 1 + b%9 }
	cell := func(a, b, r, k int) float64 { return float64(((a*batches+b)*16+r)*stride + k) }
	var wg sync.WaitGroup
	errs := make(chan error, actors)
	for a := 0; a < actors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			c := fastClient(hs.URL)
			sink := &RemoteSink{c: c, actorID: ids[a], layout: layout}
			var frame []byte
			for b := 0; b < batches; b++ {
				n := rowsIn(b)
				rows := make([]float64, n*stride)
				for r := 0; r < n; r++ {
					for k := 0; k < stride; k++ {
						rows[r*stride+k] = cell(a, b, r, k)
					}
				}
				sink.batchSeq = uint64(b + 1)
				frame = encodeAppend(frame[:0], appendBatch{ActorID: ids[a], BatchSeq: sink.batchSeq, Rows: rows, N: n}, stride)
				if _, err := sink.doAppend(frame, false); err != nil {
					errs <- fmt.Errorf("actor %d batch %d: %w", a, b, err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Batches interleave in arrival order, but each batch is contiguous and
	// each actor's batches are in sequence: walk the ring and check every
	// row against the batch its first cell names.
	got := ringRows(ring)
	next := [actors]int{}
	for off := 0; off < len(got); {
		tag := int(got[off]) / stride
		a, b := tag/16/batches, tag/16%batches
		if a < 0 || a >= actors || b != next[a] {
			t.Fatalf("ring row %d starts a batch tagged (actor %d, batch %d); expected actor's batch %v next", off/stride, a, b, next)
		}
		for r := 0; r < rowsIn(b); r++ {
			for k := 0; k < stride; k++ {
				if off >= len(got) || got[off] != cell(a, b, r, k) {
					t.Fatalf("actor %d batch %d row %d float %d: ring holds a value that batch never sent", a, b, r, k)
				}
				off++
			}
		}
		next[a]++
	}
	if next != [actors]int{batches, batches} {
		t.Fatalf("ring holds %v batches per actor, want %d each", next, batches)
	}
}

// A spool file written by the parent commit's encoder drains through this
// commit's decoder — adoption parses it, the server's handler parses it
// again — and lands in the store bit for bit; and this commit's encoder
// writes that file byte for byte, so the parent would read ours.
func TestGoldenSpoolFrameAcrossCommits(t *testing.T) {
	const name = "spool-0000000000000003.xpb"
	golden, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(64)
	layout := replay.NewRowLayout(spec)
	want := goldenRows(5, layout.Stride())

	if ours := encodeAppend(nil, appendBatch{ActorID: "golden", BatchSeq: 3, Rows: want, N: 5}, layout.Stride()); !bytes.Equal(ours, golden) {
		t.Fatal("encodeAppend no longer writes the parent commit's frame byte for byte")
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	ring := expstore.NewRing(spec)
	srv, err := NewServer(ServerConfig{Provider: ring, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer func() { hs.Close(); srv.Close() }()
	sink, err := NewRemoteSink(fastClient(hs.URL), "golden", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.EnableSpool(SpoolOptions{Dir: dir}); err != nil {
		t.Fatalf("adopting the parent-written spool: %v", err)
	}
	if sink.SpoolLen() != 1 || sink.Seq() != 3 {
		t.Fatalf("adopted spool=%d seq=%d, want 1/3", sink.SpoolLen(), sink.Seq())
	}
	if err := sink.DrainSpool(); err != nil {
		t.Fatal(err)
	}
	sameRowBits(t, "drained rows", ringRows(ring), want)
}

// An append round trip allocates the same whatever the batch size: the
// client frames into a reused buffer, the server reads into a pooled body
// and views or decodes into pooled rows. Before the pooled read, a
// 2048-row batch cost megabytes more than a 256-row one (io.ReadAll's
// doublings plus the decoded copy).
func TestAppendAllocBudgetIndependentOfRows(t *testing.T) {
	spec := testSpec(1 << 14)
	layout := replay.NewRowLayout(spec)
	stride := layout.Stride()
	_, hs := newTestServer(t, spec, nil)
	c := fastClient(hs.URL)

	perTrip := func(actor string, rows int) uint64 {
		sink := &RemoteSink{c: c, actorID: actor, layout: layout}
		payload := make([]float64, rows*stride)
		for i := range payload {
			payload[i] = float64(i)
		}
		var frame []byte
		trip := func() {
			sink.batchSeq++
			frame = encodeAppend(frame[:0], appendBatch{ActorID: actor, BatchSeq: sink.batchSeq, Rows: payload, N: rows}, stride)
			if _, err := sink.doAppend(frame, false); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ { // warm the pools and the connection
			trip()
		}
		// The cheapest of many trips: one where the garbage collector (or,
		// under -race, sync.Pool's deliberate random drops) did not empty a
		// pool, which is the steady state the budget is about.
		best := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for i := 0; i < 40; i++ {
			runtime.ReadMemStats(&before)
			trip()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small := perTrip("budget-small", 256)
	large := perTrip("budget-large", 2048)
	t.Logf("bytes allocated per append round trip: %d at 256 rows, %d at 2048 rows", small, large)
	const slack = 4 << 10
	if large > small+slack {
		t.Fatalf("a 2048-row append allocates %d B, a 256-row one %d B: the difference must stay under %d B", large, small, slack)
	}
}

// trackedBody reports whether the handler touched the request body.
type trackedBody struct {
	io.Reader
	reads int
}

func (b *trackedBody) Read(p []byte) (int, error) {
	b.reads++
	return b.Reader.Read(p)
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// Oversized bodies answer 413 — from Content-Length without reading a byte,
// or as soon as an unframed body passes the cap — never a silent truncation
// followed by a misleading parse error; a frame cut short, and a
// Content-Length that promises more than arrives, are 400s.
func TestBodyLimits(t *testing.T) {
	spec := testSpec(256)
	stride := replay.NewRowLayout(spec).Stride()
	srv, _ := newTestServer(t, spec, nil)
	appendFrame := encodeAppend(nil, appendBatch{ActorID: "a", BatchSeq: 1, Rows: make([]float64, 2*stride), N: 2}, stride)
	sampleFrame, err := encodeShardSampleRequest(nil, wireTestRequest())
	if err != nil {
		t.Fatal(err)
	}
	handlers := []struct {
		path  string
		limit int64
		frame []byte
	}{
		{PathAppend, maxAppendBody, appendFrame},
		{PathShardSample, maxShardSampleBody, sampleFrame},
	}
	for _, h := range handlers {
		cases := []struct {
			name     string
			body     io.Reader
			declared int64
			status   int
			unread   bool
		}{
			// Passes the size gate; what comes back is the parser's verdict.
			{"exact cap, declared", io.LimitReader(zeros{}, h.limit), h.limit, http.StatusBadRequest, false},
			{"cap+1, declared", io.LimitReader(zeros{}, h.limit+1), h.limit + 1, http.StatusRequestEntityTooLarge, true},
			{"cap+1, chunked", io.LimitReader(zeros{}, h.limit+1), -1, http.StatusRequestEntityTooLarge, false},
			{"short body", bytes.NewReader(h.frame[:len(h.frame)-5]), int64(len(h.frame) - 5), http.StatusBadRequest, false},
			{"Content-Length lies high", bytes.NewReader(h.frame), int64(len(h.frame) + 64), http.StatusBadRequest, false},
		}
		for _, tc := range cases {
			t.Run(h.path+"/"+tc.name, func(t *testing.T) {
				body := &trackedBody{Reader: tc.body}
				req := httptest.NewRequest(http.MethodPost, h.path, body)
				req.ContentLength = tc.declared
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != tc.status {
					t.Fatalf("status %d (%s), want %d", rec.Code, bytes.TrimSpace(rec.Body.Bytes()), tc.status)
				}
				if tc.unread && body.reads != 0 {
					t.Fatalf("handler read the body %d times before rejecting its declared length", body.reads)
				}
			})
		}
	}
	// The same valid frames, framed honestly, are accepted (the sample
	// against an empty store is a 4xx from the sampler, not a size or
	// parse error).
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathAppend, bytes.NewReader(appendFrame)))
	if rec.Code != http.StatusOK {
		t.Fatalf("valid append: status %d (%s)", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	chunked := httptest.NewRequest(http.MethodPost, PathAppend, bytes.NewReader(
		encodeAppend(nil, appendBatch{ActorID: "a", BatchSeq: 2, Rows: make([]float64, stride), N: 1}, stride)))
	chunked.ContentLength = -1
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, chunked)
	if rec.Code != http.StatusOK {
		t.Fatalf("valid chunked append: status %d (%s)", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
}
