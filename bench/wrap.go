package main

import (
	"net/http"
	"sync/atomic"
	"time"

	"marlperf/internal/expserve"
	"marlperf/internal/expstore"
	"marlperf/internal/replay"
)

// The wrappers in this file are what the traced run hands to the program in
// place of the bare values: each one times or counts the calls that cross a
// layer boundary and forwards them unchanged. The untraced run uses the
// bare values, so end-to-end metrics never pay for them.

// timedProvider accumulates the time an experience server spends inside its
// row store. It must forward GatherEncodeLE: the server's zero-copy sample
// path looks for it by type assertion and has no fallback for shard draws.
type timedProvider struct {
	ring    *expstore.Ring
	busyNs  atomic.Int64
	appends atomic.Int64
}

// appendSampling is how many AppendRow calls share one timed call. A row
// append takes tens of nanoseconds, less than reading the clock twice, so
// every call is counted but only one in appendSampling is timed, and that
// time is counted appendSampling times.
const appendSampling = 16

func (p *timedProvider) Layout() replay.RowLayout { return p.ring.Layout() }
func (p *timedProvider) RowCount() int            { return p.ring.RowCount() }
func (p *timedProvider) Flush() error             { return p.ring.Flush() }

func (p *timedProvider) AppendRow(row []float64) error {
	if p.appends.Add(1)%appendSampling != 0 {
		return p.ring.AppendRow(row)
	}
	t := time.Now()
	err := p.ring.AppendRow(row)
	p.busyNs.Add(appendSampling * int64(time.Since(t)))
	return err
}

func (p *timedProvider) SamplePacked(plan replay.SamplePlan, n int, seed int64, idx []int, rows []float64) error {
	t := time.Now()
	err := p.ring.SamplePacked(plan, n, seed, idx, rows)
	p.busyNs.Add(int64(time.Since(t)))
	return err
}

func (p *timedProvider) GatherEncodeLE(indices []int, dst []byte) {
	t := time.Now()
	p.ring.GatherEncodeLE(indices, dst)
	p.busyNs.Add(int64(time.Since(t)))
}

// serverSpanNames maps an experience-server path to the span its handler
// wrapper records.
var serverSpanNames = map[string]string{
	expserve.PathAppend:      "expserve.append_server",
	expserve.PathSample:      "expserve.sample_server",
	expserve.PathShardSample: "expserve.sample_server",
	expserve.PathStats:       "expserve.stats_server",
}

// spanHandler records one server span per request on the given lane.
func spanHandler(rec *recorder, lane int32, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, ok := serverSpanNames[r.URL.Path]
		if !ok {
			name = "expserve.other_server"
		}
		id := rec.serverEnter(name, lane)
		next.ServeHTTP(w, r)
		rec.serverLeave(id)
	})
}

// countingTransport counts the experience clients' round trips and payload
// bytes. Passed as ClientOptions.Transport, it sees every attempt, so a
// retried request shows up as an extra RPC and as a retry.
type countingTransport struct {
	next http.RoundTripper

	rpcs        atomic.Int64
	retries     atomic.Int64 // attempts that errored or drew a retryable status
	sampleBytes atomic.Int64 // sample request + reply bodies
	appendBytes atomic.Int64 // append request + ack bodies
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.rpcs.Add(1)
	resp, err := c.next.RoundTrip(req)
	if err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		c.retries.Add(1)
	}
	if err != nil {
		return resp, err
	}
	n := req.ContentLength
	if resp.ContentLength > 0 {
		n += resp.ContentLength
	}
	switch req.URL.Path {
	case expserve.PathShardSample, expserve.PathSample:
		c.sampleBytes.Add(n)
	case expserve.PathAppend:
		c.appendBytes.Add(n)
	}
	return resp, nil
}

// transportCounts is a point-in-time copy of a countingTransport.
type transportCounts struct {
	rpcs, retries, sampleBytes, appendBytes int64
}

func (c *countingTransport) counts() transportCounts {
	if c == nil {
		return transportCounts{}
	}
	return transportCounts{c.rpcs.Load(), c.retries.Load(), c.sampleBytes.Load(), c.appendBytes.Load()}
}

func (a transportCounts) sub(b transportCounts) transportCounts {
	return transportCounts{a.rpcs - b.rpcs, a.retries - b.retries, a.sampleBytes - b.sampleBytes, a.appendBytes - b.appendBytes}
}

// spanSource opens a client span around every call the learner makes into
// its experience source. With one update worker the calls come from the
// driver goroutine, so they nest under the open core.update span.
type spanSource struct {
	src replay.TransitionSource
	rec *recorder
}

func (s spanSource) Len() (int, error) {
	id := s.rec.enter("expserve.len_client")
	n, err := s.src.Len()
	s.rec.leave(id)
	return n, err
}

func (s spanSource) SampleBatch(n int, seed int64, dst []*replay.AgentBatch) ([]int, error) {
	id := s.rec.enter("expserve.sample_client")
	idx, err := s.src.SampleBatch(n, seed, dst)
	s.rec.leave(id)
	return idx, err
}

// timedSink accumulates the time the rollout engine spends handing rows to
// its sink, and remembers when the first row since the last Flush arrived
// (the start of the step-to-sampleable interval).
type timedSink struct {
	sink     replay.TransitionSink
	addNs    int64
	pending  int
	firstAdd time.Time
}

func (s *timedSink) Add(obs, act [][]float64, rew []float64, nextObs [][]float64, done []float64) error {
	t := time.Now()
	if s.pending == 0 {
		s.firstAdd = t
	}
	s.pending++
	err := s.sink.Add(obs, act, rew, nextObs, done)
	s.addNs += int64(time.Since(t))
	return err
}

func (s *timedSink) Flush() error {
	s.pending = 0
	return s.sink.Flush()
}
