package policysync

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"marlperf/internal/netretry"
	"marlperf/internal/nn"
	"marlperf/internal/trace"
)

// ClientOptions is netretry.Options under another name. bench/ is its only
// user; the binaries name netretry.Options.
type ClientOptions = netretry.Options

// Client talks to a policy distribution server. Safe for sequential use;
// use one per goroutine for concurrency.
type Client struct {
	core   *netretry.Client
	tracer *trace.Tracer

	// sleep is the backoff delay function; tests may replace it.
	sleep func(time.Duration)
}

// NewClient targets baseURL (e.g. "http://127.0.0.1:9400" or a bare
// "host:port") with the shared retry, breaker and tracing options. Edge
// defaults to "policy". Timeout bounds one round trip on top of any
// long-poll wait; the Tracer records a span per publish (joined to the
// tracer's active context — the learner's per-update root) and per fetch
// that lands a traced snapshot.
func NewClient(baseURL string, opts ClientOptions) *Client {
	if opts.Edge == "" {
		opts.Edge = "policy"
	}
	c := &Client{core: netretry.New(baseURL, opts), sleep: time.Sleep, tracer: opts.Tracer}
	// Forward through the field so tests that swap c.sleep after
	// construction still intercept backoff sleeps.
	c.core.SetClock(nil, func(d time.Duration) { c.sleep(d) })
	return c
}

// doResp runs one request through the shared retry core and returns the
// first non-retryable response (body fully read). extra widens the
// per-attempt deadline beyond Timeout — the long-poll hold time.
func (c *Client) doResp(ctx context.Context, method, path, contentType string, body []byte, extra time.Duration, hdr http.Header) (int, http.Header, []byte, error) {
	resp, err := c.core.Do(ctx, netretry.Request{
		Method:       method,
		Path:         path,
		ContentType:  contentType,
		Body:         body,
		Header:       hdr,
		ExtraTimeout: extra,
	})
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.Status, resp.Header, resp.Body, nil
}

// Publish ships one encoded snapshot frame and returns the serving version
// the store assigned to it. When the tracer has an active context (the
// learner's per-update root span — the publisher goroutine reads it after
// the update that produced these weights), the RPC gets a child span and
// the context rides the X-Marl-Trace header to the server.
func (c *Client) Publish(frame []byte) (uint64, error) {
	var sp trace.Span
	var hdr http.Header
	if tr := c.tracer; tr.Enabled() {
		if parent := tr.Active(); parent.Valid() {
			sp = tr.StartSpan(parent, "policy-publish")
			hdr = http.Header{trace.HeaderName: []string{trace.FormatHeader(sp.Context())}}
		}
	}
	status, _, data, err := c.doResp(context.Background(), http.MethodPost, PathPolicy, "application/octet-stream", frame, 0, hdr)
	if err != nil {
		sp.EndArg("error", 1)
		return 0, err
	}
	if status != http.StatusOK {
		sp.EndArg("error", 1)
		return 0, fmt.Errorf("policysync: publish: server answered %d: %s", status, strings.TrimSpace(string(data)))
	}
	var reply publishReply
	if err := json.Unmarshal(data, &reply); err != nil {
		sp.EndArg("error", 1)
		return 0, fmt.Errorf("policysync: decoding publish ack: %w", err)
	}
	sp.EndArg("version", int64(reply.Version))
	return reply.Version, nil
}

// PublishNetworks encodes the per-agent actor networks and publishes them;
// the learner's one-call path.
func (c *Client) PublishNetworks(updates uint64, agents []*nn.Network) (uint64, error) {
	frame, err := EncodeSnapshot(nil, updates, agents)
	if err != nil {
		return 0, err
	}
	return c.Publish(frame)
}

// Fetch asks for a snapshot newer than after, holding the request open up to
// wait server-side. It returns a decoded, version-stamped snapshot, or
// (nil, nil) when nothing newer exists yet — both "not modified" and "never
// published" mean keep acting on what you have and poll again.
func (c *Client) Fetch(ctx context.Context, after uint64, wait time.Duration) (*Snapshot, error) {
	q := url.Values{}
	if after > 0 {
		q.Set("after", fmt.Sprintf("%d", after))
	}
	if wait > 0 {
		q.Set("wait", wait.String())
	}
	path := PathPolicy
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	start := time.Now()
	status, hdr, data, err := c.doResp(ctx, http.MethodGet, path, "", nil, wait, nil)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return nil, err
		}
		if v, ok := etagVersion(hdr.Get("ETag")); ok {
			snap.Version = v
		}
		// A traced publish relays its context in the response header. The
		// fetch span is recorded after the fact (its parent was unknown
		// until the response landed); its duration includes the long-poll
		// hold — the true distribution latency from publish to this
		// subscriber. The snapshot carries the span's position so the
		// caller's install joins the same trace.
		if pctx, ok := trace.ParseHeader(hdr.Get(trace.HeaderName)); ok {
			snap.TraceCtx = pctx
			if sp := c.tracer.StartSpanAt(pctx, "policy-fetch", start); sp.Valid() {
				snap.TraceCtx = sp.Context()
				sp.EndArg("version", int64(snap.Version))
			}
		}
		return snap, nil
	case http.StatusNotModified, http.StatusNotFound:
		return nil, nil
	default:
		return nil, fmt.Errorf("policysync: fetch: server answered %d: %s", status, strings.TrimSpace(string(data)))
	}
}
