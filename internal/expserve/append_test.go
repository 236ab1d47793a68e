package expserve

// Tests for the append path's buffers: the sink frames rows in its staging
// buffer, the handler reads each frame into a pooled body, and DecodeAppend
// hands applyBatch rows that alias that body instead of a fresh slice.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marlperf/internal/expstore"
	"marlperf/internal/replay"
)

// refDecodeAppend is the decoder the append frame had before its payload
// went through f64le: one math.Float64frombits per value into a fresh
// slice, no aliasing. FuzzDecodeAppend compares the real decoder with it.
func refDecodeAppend(data []byte, stride int) (expstore.Batch, error) {
	var b expstore.Batch
	if len(data) < 12 || string(data[:4]) != "MXAP" || binary.LittleEndian.Uint32(data[4:]) != 1 {
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
	if gotStride != stride || n < 0 || n > 1<<20 || len(data) != off+8*n*stride+4 {
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
		f.Add(expstore.EncodeAppend(nil, expstore.Batch{ActorID: actor, BatchSeq: uint64(actorLen), Rows: rows, N: 4}, stride))
	}
	valid := expstore.EncodeAppend(nil, expstore.Batch{ActorID: "a", BatchSeq: 1, Rows: rows, N: 4}, stride)
	f.Add(expstore.EncodeAppend(nil, expstore.Batch{ActorID: "empty", BatchSeq: 2, N: 0}, stride))
	f.Add(valid[:len(valid)-1])
	f.Add(mutated(valid, func(b []byte) { b[len(b)/2] ^= 0x10 }))
	f.Add(mutated(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<30) }))
	f.Add(mutated(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[21:], 1<<19) }))
	f.Add([]byte("MXAP"))

	f.Fuzz(func(t *testing.T, frame []byte) {
		want, wantErr := refDecodeAppend(frame, stride)
		arena := make([]byte, len(frame)+8)
		var scratch []float64
		for shift := 0; shift < 8; shift++ {
			data := arena[shift : shift+len(frame)]
			copy(data, frame)
			got, err := expstore.DecodeAppend(data, stride, &scratch)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("shift %d: DecodeAppend err %v, reference err %v", shift, err, wantErr)
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
			if again := expstore.EncodeAppend(nil, got, stride); !bytes.Equal(again, frame) {
				t.Fatalf("shift %d: re-encoded frame differs from the input", shift)
			}
		}
	})
}

// ringRows copies a ring's retained rows, oldest first.
func ringRows(r *expstore.Ring) []float64 {
	idx := make([]int, r.Len())
	for i := range idx {
		idx[i] = i
	}
	out := make([]float64, len(idx)*r.Layout().Stride())
	r.GatherPacked(idx, out)
	return out
}

// addPacked hands one packed row to sink.Add, split into the per-agent
// fields PackRow interleaves — so a test can choose every float's bits.
func addPacked(sink *RemoteSink, row []float64) error {
	spec := sink.layout.Spec()
	n := spec.NumAgents
	obs, act, nxt := make([][]float64, n), make([][]float64, n), make([][]float64, n)
	rew, done := make([]float64, n), make([]float64, n)
	take := func(k int) []float64 {
		v := row[:k]
		row = row[k:]
		return v
	}
	for a := 0; a < n; a++ {
		obs[a] = take(spec.ObsDims[a])
		act[a] = take(spec.ActDim)
		rew[a] = take(1)[0]
		nxt[a] = take(spec.ObsDims[a])
		done[a] = take(1)[0]
	}
	return sink.Add(obs, act, rew, nxt, done)
}

// Nine actors, with IDs of 1 to 9 bytes — every alignment the row payload
// can have within a frame — append through one server at once, each through
// a real sink. Each batch's rows alias the sink's staging on one side and a
// pooled request body on the other, so a buffer recycled too early, or
// shared between two in-flight requests, shows up as a row in the ring that
// nobody sent (and as a race under -race). Rows are tagged (actor, batch,
// row) so every ring row can be traced back to the frame that carried it.
// The server reads every body so that its payload is 8-aligned: no pooled
// scratch ever decodes a row.
func TestConcurrentAppendersPooledBodies(t *testing.T) {
	const actors, batches = 9, 150
	spec := testSpec(actors * batches * 16)
	layout := replay.NewRowLayout(spec)
	stride := layout.Stride()
	ring := expstore.NewRing(spec)
	srv, err := NewServer(ServerConfig{Provider: ring, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	var scratchMu sync.Mutex
	var scratches []*appendScratch
	srv.appendPool.New = func() any {
		sc := new(appendScratch)
		scratchMu.Lock()
		scratches = append(scratches, sc)
		scratchMu.Unlock()
		return sc
	}
	hs := httptest.NewServer(srv)
	defer srv.Close()

	// Batch sizes cycle so staging and pooled bodies are reused at other
	// lengths.
	rowsIn := func(b int) int { return 1 + b%9 }
	cell := func(a, b, r, k int) float64 { return float64(((a*batches+b)*16+r)*stride + k) }
	var wg sync.WaitGroup
	errs := make(chan error, actors)
	for a := 0; a < actors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			sink, err := NewRemoteSink(fastClient(hs.URL), "actor-xyz"[:a+1], spec)
			if err != nil {
				errs <- err
				return
			}
			row := make([]float64, stride)
			for b := 0; b < batches; b++ {
				for r := 0; r < rowsIn(b); r++ {
					for k := range row {
						row[k] = cell(a, b, r, k)
					}
					if err := addPacked(sink, row); err != nil {
						errs <- fmt.Errorf("actor %d batch %d: %w", a, b, err)
						return
					}
				}
				if err := sink.Flush(); err != nil {
					errs <- fmt.Errorf("actor %d batch %d: %w", a, b, err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	hs.Close()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Batches interleave in arrival order, but each batch is contiguous and
	// each actor's batches are in sequence: walk the ring and check every
	// row against the batch its first cell names.
	got := ringRows(ring)
	var next, want [actors]int
	for off := 0; off < len(got); {
		tag := int(got[off]) / stride
		a, b := tag/16/batches, tag/16%batches
		if a < 0 || a >= actors || b != next[a] {
			t.Fatalf("ring row %d starts a batch tagged (actor %d, batch %d); expected actor's batch %v next", off/stride, a, b, next)
		}
		for r := 0; r < rowsIn(b); r++ {
			for k := 0; k < stride; k++ {
				if off >= len(got) || math.Float64bits(got[off]) != math.Float64bits(cell(a, b, r, k)) {
					t.Fatalf("actor %d batch %d row %d float %d: ring holds bits that batch never sent", a, b, r, k)
				}
				off++
			}
		}
		next[a]++
	}
	for a := range want {
		want[a] = batches
	}
	if next != want {
		t.Fatalf("ring holds %v batches per actor, want %d each", next, batches)
	}
	// Every scratch the pool ever handed out, not only the ones still in it.
	for i, sc := range scratches {
		if cap(sc.rows) != 0 {
			t.Fatalf("pooled scratch %d of %d decoded rows (%d floats): some payload was not read 8-aligned", i, len(scratches), cap(sc.rows))
		}
	}
}

// The staging buffer holds at most one flush threshold of rows plus the
// frame's header and CRC: a 4096-row batch at MaxBatchRows 4096 ships from
// a buffer of that size, not of twice it, and takes no second copy.
func TestSinkBufferStopsAtMaxBatchRows(t *testing.T) {
	const rows = 4096
	spec := testSpec(rows)
	stride := replay.NewRowLayout(spec).Stride()
	ring := expstore.NewRing(spec)
	srv, err := NewServer(ServerConfig{Provider: ring, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer func() { hs.Close(); srv.Close() }()
	const actor = "prefill"
	sink, err := NewRemoteSink(fastClient(hs.URL), actor, spec)
	if err != nil {
		t.Fatal(err)
	}
	sink.MaxBatchRows = rows
	rng := rand.New(rand.NewSource(41))
	row := make([]float64, stride)
	for i := 0; i < rows; i++ {
		for k := range row {
			row[k] = rng.NormFloat64()
		}
		if err := addPacked(sink, row); err != nil {
			t.Fatal(err)
		}
	}
	if ring.Len() != rows {
		t.Fatalf("ring holds %d rows after the auto-flush, want %d", ring.Len(), rows)
	}
	// Header and CRC, each rounded up to whole floats.
	limit := 8*rows*stride + (expstore.AppendHeaderLen(len(actor)) + 7) + 8
	if got := 8 * cap(sink.buf); got > limit {
		t.Fatalf("staging holds %d bytes after a %d-row batch; at most %d rows plus header and CRC is %d", got, rows, rows, limit)
	}
	if cap(sink.retained) != 0 {
		t.Fatalf("a batch that shipped was copied into a %d-byte retained buffer", cap(sink.retained))
	}
}

// The sink frames its staged rows in place, header and CRC around them, and
// those frames equal encodeAppend's byte for byte: over random batches and
// float bits, every actor-ID alignment, auto- and explicit flushes, and
// frames the server refused — which the next Flush re-ships unchanged under
// the same sequence number before it frames the rows staged since.
func TestInPlaceFramesMatchEncodeAppend(t *testing.T) {
	spec := testSpec(64)
	stride := replay.NewRowLayout(spec).Stride()
	bodies := make(chan []byte, 64) // more than any one Flush sends
	var refuse atomic.Bool
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		bodies <- body
		if refuse.Load() {
			http.Error(w, "refused", http.StatusBadRequest)
			return
		}
		fmt.Fprint(w, `{"total":0,"rows":0,"dup":false}`)
	}))
	defer hs.Close()
	c := NewClient(hs.URL, ClientOptions{Attempts: 1, Timeout: 5 * time.Second, JitterSeed: 1})
	rng := rand.New(rand.NewSource(17))
	for actorLen := 1; actorLen <= 9; actorLen++ {
		actor := "actor-xyz"[:actorLen]
		sink, err := NewRemoteSink(c, actor, spec)
		if err != nil {
			t.Fatal(err)
		}
		sink.MaxBatchRows = 1 + rng.Intn(12)
		var seq uint64
		var pending []float64 // rows staged in the sink
		var retained []byte   // the frame the sink must re-ship first
		expectBody := func(op int, want []byte) {
			t.Helper()
			select {
			case got := <-bodies:
				if !bytes.Equal(got, want) {
					t.Fatalf("actor %q op %d: shipped frame (%d bytes) differs from encodeAppend's (%d bytes)", actor, op, len(got), len(want))
				}
			default:
				t.Fatalf("actor %q op %d: no frame shipped, want one of %d bytes", actor, op, len(want))
			}
		}
		// expectFlush checks one Flush — explicit or Add's automatic one —
		// against the model: the retained frame first, then the staged rows
		// under the next sequence number; a refusal stops it.
		expectFlush := func(op int, refused bool, err error) {
			t.Helper()
			defer func() {
				if extra := len(bodies); extra != 0 {
					t.Fatalf("actor %q op %d: %d unexpected frames shipped", actor, op, extra)
				}
			}()
			if sends := retained != nil || len(pending) > 0; (err != nil) != (refused && sends) {
				t.Fatalf("actor %q op %d: refused=%v, frames to send %v, but flush err = %v", actor, op, refused, sends, err)
			}
			if retained != nil {
				expectBody(op, retained)
				if refused {
					return
				}
				retained = nil
			}
			if len(pending) == 0 {
				return
			}
			seq++
			want := expstore.EncodeAppend(nil, expstore.Batch{ActorID: actor, BatchSeq: seq, Rows: pending, N: len(pending) / stride}, stride)
			pending = nil
			expectBody(op, want)
			if refused {
				retained = want
			}
		}
		row := make([]float64, stride)
		for op := 0; op < 80; op++ {
			refused := rng.Intn(4) == 0
			refuse.Store(refused)
			if rng.Intn(6) == 0 {
				expectFlush(op, refused, sink.Flush())
				continue
			}
			for k := range row {
				row[k] = math.Float64frombits(rng.Uint64())
			}
			err := addPacked(sink, row)
			pending = append(pending, row...)
			if len(pending)/stride >= sink.MaxBatchRows {
				expectFlush(op, refused, err)
			} else if err != nil {
				t.Fatalf("actor %q op %d: add without a flush failed: %v", actor, op, err)
			}
		}
		refuse.Store(false)
		expectFlush(-1, false, sink.Flush())
		if sink.batchSeq != seq {
			t.Fatalf("actor %q: sink at seq %d, model at %d", actor, sink.batchSeq, seq)
		}
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

	if ours := expstore.EncodeAppend(nil, expstore.Batch{ActorID: "golden", BatchSeq: 3, Rows: want, N: 5}, layout.Stride()); !bytes.Equal(ours, golden) {
		t.Fatal("encodeAppend no longer writes the parent commit's frame byte for byte")
	}
	framer, err := NewRemoteSink(nil, "golden", spec)
	if err != nil {
		t.Fatal(err)
	}
	framer.SkipTo(2)
	for r := 0; r < 5; r++ {
		if err := addPacked(framer, want[r*layout.Stride():(r+1)*layout.Stride()]); err != nil {
			t.Fatal(err)
		}
	}
	if ours := framer.frame(); !bytes.Equal(ours, golden) {
		t.Fatal("the sink's in-place frame is not the parent commit's frame byte for byte")
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
	if sink.SpoolLen() != 1 || sink.batchSeq != 3 {
		t.Fatalf("adopted spool=%d seq=%d, want 1/3", sink.SpoolLen(), sink.batchSeq)
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
			frame = expstore.EncodeAppend(frame[:0], expstore.Batch{ActorID: actor, BatchSeq: sink.batchSeq, Rows: payload, N: rows}, stride)
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
	appendFrame := expstore.EncodeAppend(nil, expstore.Batch{ActorID: "a", BatchSeq: 1, Rows: make([]float64, 2*stride), N: 2}, stride)
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
		expstore.EncodeAppend(nil, expstore.Batch{ActorID: "a", BatchSeq: 2, Rows: make([]float64, stride), N: 1}, stride)))
	chunked.ContentLength = -1
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, chunked)
	if rec.Code != http.StatusOK {
		t.Fatalf("valid chunked append: status %d (%s)", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
}
