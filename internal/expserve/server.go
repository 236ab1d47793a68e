package expserve

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"marlperf/internal/expstore"
	"marlperf/internal/f64le"
	"marlperf/internal/netretry"
	"marlperf/internal/replay"
	"marlperf/internal/rowmem"
	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

// arenaBytes returns how much of p's row storage is mapped outside the Go
// heap (expstore.Ring and Store say; 0 for a provider that does not).
func arenaBytes(p expstore.Provider) int64 {
	if a, ok := p.(interface{ ArenaBytes() int64 }); ok {
		return a.ArenaBytes()
	}
	return 0
}

// ServerConfig wires an experience server.
type ServerConfig struct {
	// Provider backs all endpoints. Required. A *expstore.Store takes each
	// batch whole, as its append frame, and recovers the idempotency
	// cursors with the rows; any other provider must append rows
	// (rowAppender) and keeps the cursors in memory only.
	Provider expstore.Provider
	// Spec is the transition shape; must match Provider's layout. Required.
	Spec replay.Spec
	// QueueDepth is how many appends may wait behind the one being applied;
	// the next is answered 429, so actors back off instead of piling up
	// unbounded memory. Defaults to 64.
	QueueDepth int
	// MaxSampleRows caps one sample request. Defaults to 4096.
	MaxSampleRows int
	// Registry receives service metrics; nil creates a private registry.
	Registry *telemetry.Registry
	// Tracer, when set and enabled, records a server span per append and
	// sample request that arrives with an X-Marl-Trace header, joining
	// the client's trace. Nil or disabled costs one atomic load per
	// request.
	Tracer *trace.Tracer
	// ShardID names this server's position in a sharded replay fabric
	// (the -shard-id flag). Shard-sample requests addressed to a
	// different shard are rejected — the guard against a misrouted
	// fabric spec silently sampling the wrong substream. Empty accepts
	// any request and is reported as "" in stats.
	ShardID string
}

// rowAppender is the volatile write path: an expstore.Ring, or a test or
// benchmark wrapper around one.
type rowAppender interface {
	AppendRow(row []float64) error
	Flush() error
}

// Server executes the experience service: bounded ingestion with one writer
// at a time (per-actor arrival order is preserved and, on a durable store,
// every acknowledged batch is flushed — durable against process kill before
// the actor sees the ack), and gathers of the packed rows a learner's draw
// selected.
type Server struct {
	cfg      ServerConfig
	layout   replay.RowLayout
	mux      *http.ServeMux
	instance string // reported on /v1/stats; see statsReply

	// Exactly one write path is set: store for a durable provider, which
	// also keeps the occupancy counters /v1/stats reports, rows for a
	// volatile one.
	store *expstore.Store
	rows  rowAppender

	// provMu makes the append handler applying a batch the one writer, and
	// serializes it against sample/stats readers. The durable Store carries
	// its own lock, but the Provider contract does not require one (the
	// volatile Ring deliberately has none), so the server guards the boundary.
	provMu sync.RWMutex

	// admit bounds ingestion: QueueDepth+1 slots, one batch applying and
	// QueueDepth waiting for provMu; a full semaphore answers 429.
	admit  chan struct{}
	closed sync.Once

	// lastSeq is the per-actor idempotency cursor, seeded from a durable
	// store's recovered cursors: written under provMu.Lock by applyBatch,
	// read under provMu.RLock by handleStats.
	lastSeq map[string]uint64

	// Ingest metrics.
	ingestRows     *telemetry.Counter
	ingestBatches  *telemetry.Counter
	ingestDups     *telemetry.Counter
	ingestRejected *telemetry.Counter
	appendSeconds  *telemetry.Histogram
	// Sample metrics.
	sampleRequests *telemetry.Counter
	sampleRows     *telemetry.Counter
	sampleBytes    *telemetry.Counter
	sampleErrors   *telemetry.Counter
	sampleSeconds  *telemetry.Histogram
	sampleMisaddr  *telemetry.Counter
	// End-to-end lag metrics.
	sampleAgeRows *telemetry.Histogram // per sampled row: store rows − row index
	appendVisible *telemetry.Histogram // append admission → rows sampleable

	// samplePool recycles per-request sample scratch (request body, local
	// indices, response frame buffer) across requests. Response frames for a
	// mid-size workload run to megabytes; re-allocating and re-growing them
	// per request was the direct cause of remote throughput degrading with
	// batch size.
	samplePool sync.Pool
	// appendPool does the same for append request bodies (*appendScratch).
	appendPool sync.Pool
	// Occupancy gauges.
	storeRows     *telemetry.Gauge
	storeSegments *telemetry.Gauge

	// The process's huge-page-backed bytes, as last read (hugePageBytes).
	hugeMu    sync.Mutex
	hugeAt    time.Time
	hugeBytes int64
}

// hugePageBytes returns rowmem.AnonHugePageBytes, read at most once a
// second: the kernel walks the process's page tables to answer, and
// /v1/stats is not only an operator's endpoint — the learner fetches it from
// every shard for each frozen view.
func (s *Server) hugePageBytes() int64 {
	s.hugeMu.Lock()
	defer s.hugeMu.Unlock()
	if now := time.Now(); s.hugeAt.IsZero() || now.Sub(s.hugeAt) >= time.Second {
		s.hugeBytes, s.hugeAt = rowmem.AnonHugePageBytes(), now
	}
	return s.hugeBytes
}

// NewServer validates cfg and registers metrics. Close must be called to
// drain ingestion.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Provider == nil {
		return nil, fmt.Errorf("expserve: NewServer needs a Provider")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	layout := cfg.Provider.Layout()
	if want := replay.NewRowLayout(cfg.Spec); layout.Stride() != want.Stride() {
		return nil, fmt.Errorf("expserve: provider stride %d does not match spec stride %d", layout.Stride(), want.Stride())
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxSampleRows <= 0 {
		cfg.MaxSampleRows = 4096
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	reg.SetHelp("marl_exp_ingest_rows_total", "Transition rows ingested into the experience store.")
	reg.SetHelp("marl_exp_sample_requests_total", "Per-shard slices of fabric-wide sample draws served by this store.")
	reg.SetHelp("marl_exp_sample_bytes_total", "Sample response bytes written to the wire.")
	reg.SetHelp("marl_exp_sample_age_rows", "Age of each sampled row, in rows appended since it (store row count minus sampled index).")
	reg.SetHelp("marl_exp_append_visible_seconds", "Latency from append admission to the batch's rows being flushed and sampleable.")
	reg.SetHelp("marl_exp_shard_sample_misaddressed_total", "Shard-sample requests rejected because they were addressed to a different shard id.")
	reg.SetHelp("marl_exp_store_arena_bytes", "Row storage mapped outside the Go heap, in bytes (0: the ring is smaller than a huge page and lives on the heap).")
	reg.SetHelp("marl_exp_store_hugepage_bytes", "Anonymous memory of this process on transparent huge pages, in bytes (AnonHugePages; 0 where the kernel does not report it).")
	var id [8]byte
	if _, err := rand.Read(id[:]); err != nil {
		return nil, fmt.Errorf("expserve: drawing an instance ID: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		layout:   layout,
		instance: hex.EncodeToString(id[:]),
		admit:    make(chan struct{}, cfg.QueueDepth+1),
		lastSeq:  make(map[string]uint64),

		ingestRows:     reg.Counter("marl_exp_ingest_rows_total"),
		ingestBatches:  reg.Counter("marl_exp_ingest_batches_total"),
		ingestDups:     reg.Counter("marl_exp_ingest_dup_batches_total"),
		ingestRejected: reg.Counter("marl_exp_ingest_rejected_total"),
		appendSeconds:  reg.Histogram("marl_exp_append_seconds", nil),
		sampleRequests: reg.Counter("marl_exp_sample_requests_total"),
		sampleRows:     reg.Counter("marl_exp_sample_rows_total"),
		sampleBytes:    reg.Counter("marl_exp_sample_bytes_total"),
		sampleErrors:   reg.Counter("marl_exp_sample_errors_total"),
		sampleSeconds:  reg.Histogram("marl_exp_sample_seconds", nil),
		sampleMisaddr:  reg.Counter("marl_exp_shard_sample_misaddressed_total"),

		samplePool: sync.Pool{New: func() any { return new(sampleScratch) }},
		appendPool: sync.Pool{New: func() any { return new(appendScratch) }},

		sampleAgeRows: reg.Histogram("marl_exp_sample_age_rows", sampleAgeBuckets()),
		appendVisible: reg.Histogram("marl_exp_append_visible_seconds", nil),
		storeRows:     reg.Gauge("marl_exp_store_rows"),
		storeSegments: reg.Gauge("marl_exp_store_segments"),
	}
	s.updateGauges(cfg.Provider.RowCount()) // a recovered store's rows count from the start
	reg.Gauge("marl_exp_store_arena_bytes").SetFunc(func() float64 { return float64(arenaBytes(cfg.Provider)) })
	reg.Gauge("marl_exp_store_hugepage_bytes").SetFunc(func() float64 { return float64(s.hugePageBytes()) })
	switch p := cfg.Provider.(type) {
	case *expstore.Store:
		s.store, s.lastSeq = p, p.Cursors()
	case rowAppender:
		s.rows = p
	default:
		return nil, fmt.Errorf("expserve: provider %T can append neither batches nor rows", p)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(PathAppend, s.handleAppend)
	s.mux.HandleFunc(PathShardSample, s.handleShardSample)
	s.mux.HandleFunc(PathStats, s.handleStats)
	return s, nil
}

// sampleAgeBuckets spans row ages from a warm small buffer (hundreds of
// rows) to a 1M+ transition window, roughly ×4 per bucket.
func sampleAgeBuckets() []float64 {
	return []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
}

// requestSpan opens a server span joined to the trace context the
// request carries, or an inert span when tracing is off or no valid
// X-Marl-Trace header arrived.
func (s *Server) requestSpan(r *http.Request, name string) trace.Span {
	if !s.cfg.Tracer.Enabled() {
		return trace.Span{}
	}
	ctx, ok := trace.ParseHeader(r.Header.Get(trace.HeaderName))
	if !ok {
		return trace.Span{}
	}
	return s.cfg.Tracer.StartSpan(ctx, name)
}

// Handler returns the service mux, for mounting alongside other endpoints
// (marl-replayd serves it together with the telemetry /metrics handler).
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops admitting appends (later ones get 429) and waits for the
// admitted ones to be applied and acknowledged. Idempotent.
func (s *Server) Close() error {
	s.closed.Do(func() {
		for range cap(s.admit) { // a blocked send gets a freed slot before any handler
			s.admit <- struct{}{}
		}
	})
	return nil
}

// applyBatch applies an admitted batch, decoded from frame, under
// provMu.Lock and returns its ack once the store has it: on a durable store
// its record is flushed, and RowCount is exact the moment an ack returns,
// the property the determinism contract needs.
func (s *Server) applyBatch(b expstore.Batch, frame []byte) (appendReply, error) {
	admitted := time.Now()
	s.provMu.Lock()
	defer s.provMu.Unlock()
	start := time.Now()
	if applied, ok := s.lastSeq[b.ActorID]; ok && b.BatchSeq <= applied {
		s.ingestDups.Inc()
		return appendReply{Rows: s.cfg.Provider.RowCount(), Dup: true}, nil
	}
	if err := s.write(b, frame); err != nil {
		return appendReply{}, err
	}
	s.lastSeq[b.ActorID] = b.BatchSeq
	s.ingestBatches.Inc()
	s.ingestRows.Add(uint64(b.N))
	s.appendSeconds.Observe(time.Since(start).Seconds())
	s.appendVisible.Observe(time.Since(admitted).Seconds())
	rows := s.cfg.Provider.RowCount()
	s.updateGauges(rows)
	return appendReply{Total: s.storeTotal(), Rows: rows}, nil
}

// write hands b to the provider: whole, as its frame, to a durable store;
// row by row to a volatile one.
func (s *Server) write(b expstore.Batch, frame []byte) error {
	if s.store != nil {
		return s.store.Append(b, frame)
	}
	stride := s.layout.Stride()
	for k := 0; k < b.N; k++ {
		if err := s.rows.AppendRow(b.Rows[k*stride : (k+1)*stride]); err != nil {
			return err
		}
	}
	return s.rows.Flush()
}

// storeTotal is the rows ever appended: the provider's count if it keeps one.
func (s *Server) storeTotal() uint64 {
	if s.store != nil {
		return s.store.Total()
	}
	return s.ingestRows.Value()
}

func (s *Server) updateGauges(rows int) {
	s.storeRows.Set(float64(rows))
	if s.store != nil {
		s.storeSegments.Set(float64(s.store.Stats().Segments))
	}
}

// appendScratch is one append request's pooled body and decode scratch.
type appendScratch struct {
	words []float64
	rows  []float64
}

// read reads an append body into sc.words: the prefix, then the rest at the
// offset (from the actor-ID length) that 8-aligns the rows for DecodeAppend's
// view. A chunked body, or any on a big-endian host, may need sc.rows.
func (sc *appendScratch) read(r *http.Request) ([]byte, error) {
	declared := r.ContentLength
	alignable := f64le.Native && declared >= expstore.AppendPrefix && declared <= maxAppendBody
	if words := int(declared+7+7) / 8; alignable && cap(sc.words) < words { // ≤ 7 bytes of pad, then the body
		sc.words = make([]float64, words)
	}
	mem := f64le.Bytes(sc.words[:cap(sc.words)])
	if !alignable {
		return netretry.ReadBody(r.Body, declared, maxAppendBody, mem[:0])
	}
	if _, err := io.ReadFull(r.Body, mem[:expstore.AppendPrefix]); err != nil {
		return nil, fmt.Errorf("append frame prefix: %w", err)
	}
	// Only the actor-ID length mod 8 matters here; DecodeAppend judges it.
	pad := expstore.AppendPad(int(binary.LittleEndian.Uint32(mem[8:]) % 8))
	copy(mem[pad:], mem[:expstore.AppendPrefix])
	body := mem[pad : pad+int(declared)]
	if _, err := netretry.ReadBody(r.Body, declared-expstore.AppendPrefix, maxAppendBody, body[expstore.AppendPrefix:]); err != nil {
		return nil, err
	}
	return body, nil
}

// handleAppend ingests one actor batch. Past the admission bound it answers
// 429 — the backpressure signal the client's jittered retry loop respects.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	sc := s.appendPool.Get().(*appendScratch)
	defer s.appendPool.Put(sc) // the body and the batch's rows alias sc until applyBatch returns
	body, err := sc.read(r)
	if err != nil {
		http.Error(w, err.Error(), netretry.BodyStatus(err))
		return
	}
	batch, err := expstore.DecodeAppend(body, s.layout.Stride(), &sc.rows)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The server span covers lock wait + apply + flush — the "experience
	// becomes sampleable" window the client's append-rpc span brackets.
	sp := s.requestSpan(r, "ingest")
	select {
	case s.admit <- struct{}{}:
	default:
		s.ingestRejected.Inc()
		sp.EndArg("rejected", 1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "ingest queue full", http.StatusTooManyRequests)
		return
	}
	reply, err := s.applyBatch(batch, body)
	<-s.admit
	if err != nil {
		sp.EndArg("error", 1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sp.EndArg("rows", int64(batch.N))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(reply)
}

// sampleScratch is one request's worth of recycled sample state.
type sampleScratch struct {
	req    []byte // request body
	locals []int
	buf    []byte    // full response frame
	ages   []float64 // per gathered row, for the age histogram
}

// handleShardSample gathers this shard's slice of a fabric-wide draw. The
// learner has already selected: the request names the rows it wants by
// their local index in the retained window its view saw, so the handler
// only validates, shifts by the trim drift, gathers and replies, rows in
// the order asked.
func (s *Server) handleShardSample(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	sc := s.samplePool.Get().(*sampleScratch)
	defer s.samplePool.Put(sc)
	body, err := netretry.ReadBody(r.Body, r.ContentLength, maxShardSampleBody, sc.req)
	if err != nil {
		http.Error(w, err.Error(), netretry.BodyStatus(err))
		return
	}
	sc.req = body
	req, err := decodeShardSampleRequest(body, sc.locals)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sc.locals = req.Locals
	if s.cfg.ShardID != "" && req.ShardID != "" && req.ShardID != s.cfg.ShardID {
		s.sampleMisaddr.Inc()
		http.Error(w, fmt.Sprintf("request addressed to shard %q, this is %q", req.ShardID, s.cfg.ShardID), http.StatusBadRequest)
		return
	}
	k := len(req.Locals)
	if k < 1 || k > s.cfg.MaxSampleRows {
		http.Error(w, fmt.Sprintf("k %d outside [1,%d]", k, s.cfg.MaxSampleRows), http.StatusBadRequest)
		return
	}
	start := time.Now()
	sp := s.requestSpan(r, "shard-sample")
	s.sampleRequests.Inc()
	stride := s.layout.Stride()
	total := shardReplySize(k, stride)
	if cap(sc.buf) < total {
		sc.buf = make([]byte, total)
	}
	buf := sc.buf[:total]

	s.provMu.RLock()
	rowCount, storeTotal := s.cfg.Provider.RowCount(), s.storeTotal()
	// The local indices are relative to the retained window the client
	// observed; this store may have trimmed further (or, on a lagging
	// replica, less) since. Shift by the trim drift, and refuse rather than
	// mis-sample when a wanted row is gone or not yet here — the client
	// treats the 409 as a degraded shard and fails over.
	viewTrim := int64(req.Stat.Total) - int64(req.Stat.Rows)
	storeTrim := int64(storeTotal) - int64(rowCount)
	drift := viewTrim - storeTrim
	locals := req.Locals
	var gatherErr error
	for i := range locals {
		l := int64(locals[i]) + drift
		if l < 0 || l >= int64(rowCount) {
			gatherErr = fmt.Errorf("row %d outside this shard's window [0,%d) (trim drift %d)", l, rowCount, drift)
			break
		}
		locals[i] = int(l)
	}
	if gatherErr == nil {
		s.cfg.Provider.GatherEncodeLE(locals, buf[shardReplyHdr:])
	}
	s.provMu.RUnlock()
	if gatherErr != nil {
		s.sampleErrors.Inc()
		sp.EndArg("error", 1)
		http.Error(w, gatherErr.Error(), http.StatusConflict)
		return
	}
	putShardReplyHeader(buf, k, stride, requestCRC(body))
	if cap(sc.ages) < k {
		sc.ages = make([]float64, k)
	}
	ages := sc.ages[:k]
	for i, l := range locals {
		ages[i] = float64(rowCount - l)
	}
	s.sampleAgeRows.ObserveAll(ages)
	s.sampleRows.Add(uint64(k))
	s.sampleBytes.Add(uint64(total))
	s.sampleSeconds.Observe(time.Since(start).Seconds())
	sp.EndArg("rows", int64(k))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(total))
	_, _ = w.Write(buf)
}

// handleStats reports the spec, occupancy and per-actor append cursors as
// JSON. The cursors let a restarted actor resume its sequence stream past
// what the server already applied instead of colliding with the dedup map.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var st expstore.Stats
	s.provMu.RLock()
	if s.store != nil {
		st = s.store.Stats()
	} else {
		st.Rows = s.cfg.Provider.RowCount()
		st.Total = s.ingestRows.Value()
		st.Stride = s.layout.Stride()
		st.ArenaBytes = arenaBytes(s.cfg.Provider)
	}
	st.Shard = s.cfg.ShardID
	actors := make(map[string]uint64, len(s.lastSeq))
	for a, seq := range s.lastSeq {
		actors[a] = seq
	}
	s.updateGauges(st.Rows)
	s.provMu.RUnlock()
	st.HugePageBytes = s.hugePageBytes()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(statsReply{Instance: s.instance, Spec: specToWire(s.cfg.Spec), Store: st, Actors: actors})
}
