package expserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"marlperf/internal/expstore"
	"marlperf/internal/f64le"
	"marlperf/internal/frame"
	"marlperf/internal/netretry"
	"marlperf/internal/replay"
	"marlperf/internal/trace"
)

// ClientOptions configure an experience client: the shared retry, breaker,
// striping and tracing options. Edge defaults to "replay". It is
// netretry.Options under another name; outside this package bench/ is its
// only user, and the binaries name netretry.Options.
type ClientOptions = netretry.Options

// Client talks to an experience server. Requests may be issued from many
// goroutines at once; with Conns > 1 they ride separate persistent
// connections instead of queueing behind each other.
type Client struct {
	core   *netretry.Client
	tracer *trace.Tracer
}

// NewClient targets baseURL (e.g. "http://127.0.0.1:9300" or a bare
// "host:port").
func NewClient(baseURL string, opts ClientOptions) *Client {
	if opts.Edge == "" {
		opts.Edge = "replay"
	}
	return &Client{core: netretry.New(baseURL, opts), tracer: opts.Tracer}
}

// StatusError is a definitive non-OK server answer (4xx that is not
// backpressure) — a rejection, not an outage.
type StatusError struct {
	Path   string
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("expserve: %s: server answered %d: %s", e.Path, e.Status, e.Msg)
}

// do runs one request through the shared retry core, returning the
// response body of the first success.
func (c *Client) do(method, path string, contentType string, body []byte) ([]byte, error) {
	return c.doScratch(method, path, contentType, body, false, nil, nil)
}

// doScratch is do with the knobs the data plane uses. failFast
// short-circuits while the circuit breaker is open — the spool path uses it
// to shed load off a dead server instead of stalling the actor. A non-nil
// scratch receives the reply body (netretry replaces it at most once) and
// the returned slice aliases it: the sample path threads pooled
// multi-megabyte buffers through here so steady-state sampling allocates
// nothing per request. hdr carries extra request headers (trace
// propagation); nil adds none.
func (c *Client) doScratch(method, path string, contentType string, body []byte, failFast bool, scratch []byte, hdr http.Header) ([]byte, error) {
	resp, err := c.core.Do(context.Background(), netretry.Request{
		Method:      method,
		Path:        path,
		ContentType: contentType,
		Body:        body,
		Header:      hdr,
		FailFast:    failFast,
		Scratch:     scratch,
	})
	if err != nil {
		return nil, err
	}
	if resp.Status != http.StatusOK {
		return nil, &StatusError{Path: path, Status: resp.Status, Msg: strings.TrimSpace(string(resp.Body))}
	}
	return resp.Body, nil
}

// isOutage reports whether err means the server is unreachable or
// persistently failing (spool-worthy), as opposed to a definitive
// rejection.
func isOutage(err error) bool { return netretry.Outage(err) }

// ServiceStats is the server's /v1/stats document: its instance ID, spec,
// occupancy, and the newest applied append sequence per actor.
type ServiceStats struct {
	Instance string
	Spec     replay.Spec
	Rows     int
	Total    uint64
	Actors   map[string]uint64
}

// ServiceStats fetches the server's spec, occupancy and per-actor append
// cursors.
func (c *Client) ServiceStats() (ServiceStats, error) {
	data, err := c.do(http.MethodGet, PathStats, "", nil)
	if err != nil {
		return ServiceStats{}, err
	}
	var reply statsReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return ServiceStats{}, fmt.Errorf("expserve: decoding stats: %w", err)
	}
	return ServiceStats{
		Instance: reply.Instance,
		Spec:     reply.Spec.spec(),
		Rows:     reply.Store.Rows,
		Total:    reply.Store.Total,
		Actors:   reply.Actors,
	}, nil
}

// RemoteSink buffers transitions locally and ships them to the server in
// batches, implementing replay.TransitionSink. Each shipped batch carries
// the sink's actor ID and a monotonic sequence number, so a retried append
// that already landed is acknowledged as a duplicate instead of doubling
// experience.
//
// With EnableSpool armed, an unreachable server no longer fails the sink:
// batches divert to a local spool directory and drain — in sequence order —
// once the server answers again. See spool.go.
type RemoteSink struct {
	c       *Client
	actorID string
	layout  replay.RowLayout

	// MaxBatchRows triggers an automatic Flush when the local buffer
	// reaches it. Defaults to 512.
	MaxBatchRows int

	// OnSpool, when non-nil, observes every batch diverted to the spool
	// (err is the ship failure that caused the diversion, nil for batches
	// queued behind earlier spooled ones). queued is the spool depth after
	// the diversion.
	OnSpool func(queued int, err error)
	// OnDrain, when non-nil, observes every completed spool drain with the
	// number of batches shipped.
	OnDrain func(batches int)

	batchSeq uint64
	// buf stages a batch as its own frame: header room, n rows, CRC room.
	buf []float64
	n   int
	// retained is the frame of batch batchSeq that was shipped but neither
	// acknowledged nor spooled; empty when none.
	retained []byte

	spool *spool
}

// NewRemoteSink creates a sink publishing as actorID.
func NewRemoteSink(c *Client, actorID string, spec replay.Spec) (*RemoteSink, error) {
	if actorID == "" || len(actorID) > 256 {
		return nil, fmt.Errorf("expserve: actor id must be 1..256 bytes")
	}
	return &RemoteSink{c: c, actorID: actorID, layout: replay.NewRowLayout(spec), MaxBatchRows: 512}, nil
}

// SkipTo fast-forwards the sink's sequence counter to seq if it is ahead
// of the local one. An actor restarting under the same ID calls this with
// the server's cursor (ServiceStats().Actors) so its fresh stream is not
// silently deduplicated against its previous incarnation's.
func (s *RemoteSink) SkipTo(seq uint64) {
	if seq > s.batchSeq {
		s.batchSeq = seq
	}
}

// Add implements replay.TransitionSink: pack locally, auto-flushing at
// MaxBatchRows. The row is staged even when that flush fails.
func (s *RemoteSink) Add(obs, act [][]float64, rew []float64, nextObs [][]float64, done []float64) error {
	hw, stride := s.headerWords(), s.layout.Stride()
	at := hw + s.n*stride
	if at+stride >= len(s.buf) {
		// Full (the last float is the CRC's): double, but not past
		// MaxBatchRows unless a failed flush left that many rows staged.
		rows := max(2*s.n, 1)
		if s.n < s.MaxBatchRows {
			rows = min(rows, s.MaxBatchRows)
		}
		grown := make([]float64, hw+rows*stride+1)
		copy(grown, s.buf)
		s.buf = grown
	}
	s.layout.PackRow(s.buf[at:at+stride], obs, act, rew, nextObs, done)
	s.n++
	if s.n >= s.MaxBatchRows {
		return s.Flush()
	}
	return nil
}

// headerWords is the floats of buf ahead of the rows: the pad, then the header.
func (s *RemoteSink) headerWords() int {
	return (expstore.AppendPad(len(s.actorID)) + expstore.AppendHeaderLen(len(s.actorID))) / 8
}

// frame closes the staged rows, in place, into the append frame of the next
// sequence number; a big-endian host (no byte view of floats) encodes a copy.
func (s *RemoteSink) frame() []byte {
	s.batchSeq++
	n, hw, stride := s.n, s.headerWords(), s.layout.Stride()
	s.n = 0
	mem := f64le.Bytes(s.buf)
	if mem == nil {
		return expstore.EncodeAppend(nil, expstore.Batch{ActorID: s.actorID, BatchSeq: s.batchSeq, Rows: s.buf[hw:], N: n}, stride)
	}
	// The header is appended into the room ahead of the rows, and the
	// trailer into the float reserved behind them.
	f := mem[expstore.AppendPad(len(s.actorID)) : 8*(hw+n*stride)]
	expstore.AppendBatchHeader(f[:0], s.actorID, s.batchSeq, n, stride)
	return frame.Seal(f, 0)
}

// doAppend ships one encoded append frame and validates the ack. When
// tracing, the RPC gets a span: joined to the tracer's active context
// when one is set (the rollout engine's step root, stitching actor
// rollout → replayd ingest into one trace), otherwise rooted under a
// deterministic (actorID, batchSeq)-derived trace ID — which also covers
// spool-drain replays.
func (s *RemoteSink) doAppend(frame []byte, failFast bool) (appendReply, error) {
	var sp trace.Span
	var hdr http.Header
	if tr := s.c.tracer; tr.Enabled() {
		if parent := tr.Active(); parent.Valid() {
			sp = tr.StartSpan(parent, "append-rpc")
		} else {
			tid := trace.DeriveTraceID(trace.HashID(s.actorID), trace.KindAppend, s.batchSeq)
			sp = tr.StartTrace(tid, "append-rpc")
		}
		if sp.Valid() {
			hdr = http.Header{trace.HeaderName: []string{trace.FormatHeader(sp.Context())}}
		}
	}
	data, err := s.c.doScratch(http.MethodPost, PathAppend, "application/octet-stream", frame, failFast, nil, hdr)
	if err != nil {
		sp.EndArg("error", 1)
		return appendReply{}, err
	}
	sp.EndArg("seq", int64(s.batchSeq))
	var reply appendReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return appendReply{}, fmt.Errorf("expserve: decoding append ack: %w", err)
	}
	return reply, nil
}

// Flush implements replay.TransitionSink: ship the buffered rows as one
// idempotent append batch and wait for the server's ack (which implies the
// store accepted and flushed them). With a spool armed, an outage diverts
// the batch to disk instead of failing — order is preserved by spooling
// every subsequent batch until the backlog drains. Without one, a failed
// batch is retained (its one copy): the next Flush re-ships those bytes under
// the same sequence number first, so a batch that landed before its ack was
// lost is acknowledged as a duplicate instead of being applied twice.
func (s *RemoteSink) Flush() error {
	divert := false
	if s.spool != nil && s.spool.len() > 0 {
		// A backlog exists: drain it first so sequence order holds. While
		// the server is still down, the pending rows join the backlog.
		if err := s.drainSpool(true); err != nil {
			if !isOutage(err) {
				return err
			}
			divert = true
		}
	}
	if len(s.retained) > 0 {
		if err := s.ship(s.retained, divert); err != nil {
			return err
		}
		s.retained = s.retained[:0]
	}
	if s.n == 0 {
		return nil
	}
	frame := s.frame()
	if err := s.ship(frame, divert); err != nil {
		s.retained = append(s.retained[:0], frame...)
		return err
	}
	return nil
}

// ship sends one frame, or spools it unsent when divert is set. With a
// spool armed it fails fast while the breaker is open (the batch has a local
// home, no reason to stall the rollout loop) and diverts on an outage.
func (s *RemoteSink) ship(frame []byte, divert bool) error {
	var err error
	if !divert {
		_, err = s.doAppend(frame, s.spool != nil)
		if err == nil || s.spool == nil || !isOutage(err) {
			return err
		}
	}
	return s.spoolFrame(frame, err)
}

var _ replay.TransitionSink = (*RemoteSink)(nil)
