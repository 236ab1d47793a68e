// Package netretry is the single resilience layer and the single option
// set under every networked client in the system: the binaries pass
// Options to expserve and policysync, whose ClientOptions aliases remain
// for bench/. It owns the retry
// loop (jittered exponential backoff, a per-attempt timeout plus a total
// retry-deadline budget), a three-state circuit breaker per edge and the
// connection striping of the data-plane clients. Retry and breaker
// activity is exported as marl_retry_total / marl_retry_giveup_total /
// marl_circuit_state / marl_circuit_open_total on a caller-supplied
// telemetry registry, so an operator can see exactly which edge is
// flapping from /metrics.
//
// The jitter stream is seed-driven: the same JitterSeed yields the same
// backoff schedule, which is what makes outage tests reproducible. Both
// the clock and the sleep function are injectable, so backoff tests run
// without real sleeps.
package netretry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

// Defaults applied by New for zero Options fields.
const (
	DefaultTimeout          = 10 * time.Second
	DefaultAttempts         = 4
	DefaultBaseDelay        = 50 * time.Millisecond
	DefaultMaxDelay         = 2 * time.Second
	DefaultBreakerThreshold = 6
)

// maxBodyBytes bounds how much of a response body a client will buffer.
const maxBodyBytes = 256 << 20

// Options configures a resilient HTTP client for one edge.
type Options struct {
	// Timeout bounds each individual attempt (a long-poll's declared wait
	// comes on top). Defaults to 10s.
	Timeout time.Duration
	// Attempts is the maximum number of tries per request (not counting
	// waits for a circuit-breaker probe slot, which consume no attempt).
	// Defaults to 4.
	Attempts int
	// BaseDelay is the first backoff delay (default 50ms); it doubles per
	// retry up to MaxDelay (default 2s), with +0..50% jitter drawn from
	// JitterSeed so a fleet bounced by a 429 does not re-arrive in
	// lockstep.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff.
	MaxDelay time.Duration
	// JitterSeed seeds the backoff jitter stream; 0 derives one from the
	// clock. A fixed seed makes the retry schedule reproducible. Jitter
	// never influences payload bytes, only retry spacing.
	JitterSeed int64
	// TotalDeadline, when positive, bounds the whole retry loop: a sleep
	// that would overrun it is never started and the last error returns.
	// An actor riding out a replayd restart wants generous Attempts with a
	// TotalDeadline matched to the outage it will tolerate.
	TotalDeadline time.Duration
	// BreakerThreshold is how many consecutive contact failures open the
	// circuit (0 = DefaultBreakerThreshold, negative disables the breaker).
	// A 429 is backpressure, not an outage: it counts as contact.
	BreakerThreshold int
	// BreakerCooldown is the open → half-open probe interval
	// (0 = MaxDelay).
	BreakerCooldown time.Duration
	// Edge labels this client's metrics (marl_retry_total{edge=...});
	// empty means "default".
	Edge string
	// Registry receives retry/circuit metrics; nil uses a private one.
	Registry *telemetry.Registry
	// Transport overrides the HTTP transport (fault injectors hook here).
	// When set, Conns is ignored: the caller owns connection management.
	Transport http.RoundTripper
	// Conns stripes the client across this many persistent connections:
	// the transport keeps Conns warm sockets to the server, so that many
	// requests can be in flight at once without handshake or slow-start
	// cost on any of them. The default transport keeps only 2 idle conns
	// per host, which silently serializes a wider worker pool. 0 or 1
	// means the default transport.
	Conns int
	// Tracer, when set and enabled, is the tracer the client's own span
	// code records RPC spans on and propagates context from in the
	// X-Marl-Trace header. Trace context never touches the payload, so
	// traced and untraced requests are byte-identical.
	Tracer *trace.Tracer
}

func (o *Options) fill() {
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.Attempts <= 0 {
		o.Attempts = DefaultAttempts
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = DefaultBaseDelay
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = DefaultMaxDelay
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = time.Now().UnixNano()
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = o.MaxDelay
	}
	if o.Edge == "" {
		o.Edge = "default"
	}
	if o.Registry == nil {
		o.Registry = telemetry.NewRegistry()
	}
	if o.Transport == nil && o.Conns > 1 {
		// The net/http default of 2 idle conns per host closes every socket
		// beyond the pair, so a pool of workers would pay a TCP handshake
		// and slow start on most concurrent requests; raising the idle cap
		// is what lets requests actually pipeline across stripes.
		o.Transport = &http.Transport{
			MaxIdleConns:        2 * o.Conns,
			MaxIdleConnsPerHost: o.Conns,
			IdleConnTimeout:     90 * time.Second,
		}
	}
}

// Request is one logical HTTP exchange, retried as a unit.
type Request struct {
	Method      string // default GET
	Path        string // appended to the client base URL
	ContentType string
	Body        []byte
	Header      http.Header
	// ExtraTimeout widens this request's per-attempt timeout beyond the
	// client default (long-polls declare their wait here).
	ExtraTimeout time.Duration
	// FailFast returns ErrCircuitOpen immediately while the breaker is
	// open instead of sleeping until the next probe slot. Callers with a
	// local fallback (the actor's spool) use this to shed load off a dead
	// peer without stalling.
	FailFast bool
	// Scratch, when non-nil, receives the response body in place of a
	// fresh allocation (ReadBody replaces it once when it is too small).
	// The returned Response.Body then aliases Scratch (or its replacement),
	// and the caller owns the buffer again the moment Do returns — the
	// contract that lets the sample hot path recycle multi-megabyte reply
	// buffers through a pool instead of re-growing them per request.
	Scratch []byte
}

// Response is the first non-retryable answer the server gave. Callers see
// every status except 429/5xx, which are retried and surface as errors
// once attempts are exhausted.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
}

// ErrCircuitOpen is returned (wrapped) by fail-fast requests while the
// edge's circuit breaker is open.
var ErrCircuitOpen = errors.New("netretry: circuit open")

// outageError marks errors that mean "the peer is unreachable or
// persistently failing" — transport faults, exhausted retries on 5xx/429,
// a blown total deadline, an open circuit — as opposed to a definitive
// server answer or a caller-side context cancellation.
type outageError struct{ err error }

func (e *outageError) Error() string { return e.err.Error() }
func (e *outageError) Unwrap() error { return e.err }

func markOutage(err error) error { return &outageError{err: err} }

// Outage reports whether err indicates the peer is down/unreachable (and a
// degraded-mode fallback such as spooling is appropriate) rather than a
// definitive rejection or a local cancellation.
func Outage(err error) bool {
	var oe *outageError
	return errors.As(err, &oe)
}

// Retryable reports whether an HTTP status is worth retrying: 429
// (backpressure) and all 5xx.
func Retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// Client issues requests against one base URL with unified retry, backoff
// and circuit-breaking. It is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	opts    Options
	breaker *Breaker

	mu  sync.Mutex
	rng *rand.Rand

	now   func() time.Time
	sleep func(time.Duration)

	retries  *telemetry.Counter
	giveups  *telemetry.Counter
	failfast *telemetry.Counter
}

// New builds a client for baseURL (scheme optional; http:// is assumed).
func New(baseURL string, opts Options) *Client {
	opts.fill()
	reg := opts.Registry
	reg.SetHelp("marl_retry_total", "Retries (sleeps before re-attempt) per edge.")
	reg.SetHelp("marl_retry_giveup_total", "Requests abandoned after exhausting attempts or the total retry deadline, per edge.")
	reg.SetHelp("marl_circuit_failfast_total", "Fail-fast requests rejected locally while the circuit was open, per edge.")
	c := &Client{
		base:     NormalizeBase(baseURL),
		hc:       &http.Client{Transport: opts.Transport},
		opts:     opts,
		breaker:  NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown, reg, opts.Edge),
		rng:      rand.New(rand.NewSource(opts.JitterSeed)),
		now:      time.Now,
		sleep:    time.Sleep,
		retries:  reg.Counter("marl_retry_total", "edge", opts.Edge),
		giveups:  reg.Counter("marl_retry_giveup_total", "edge", opts.Edge),
		failfast: reg.Counter("marl_circuit_failfast_total", "edge", opts.Edge),
	}
	return c
}

// SetClock injects a clock and/or sleep function for tests; nil arguments
// leave the current function in place. The breaker shares the clock.
func (c *Client) SetClock(now func() time.Time, sleep func(time.Duration)) {
	if now != nil {
		c.now = now
		c.breaker.setClock(now)
	}
	if sleep != nil {
		c.sleep = sleep
	}
}

// Do runs one request through the retry loop. It returns the first
// non-retryable response (whatever its status), or an error once attempts
// or the total deadline are exhausted. Errors from exhausted retries,
// transport faults and open circuits satisfy Outage; context cancellation
// and non-retryable statuses do not.
func (c *Client) Do(ctx context.Context, req Request) (Response, error) {
	if req.Method == "" {
		req.Method = http.MethodGet
	}
	var lastErr error
	delay := c.opts.BaseDelay
	var deadline time.Time
	if c.opts.TotalDeadline > 0 {
		deadline = c.now().Add(c.opts.TotalDeadline)
	}
	for attempt := 1; ; {
		if wait, ok := c.breaker.Allow(); !ok {
			open := fmt.Errorf("%w on edge %q", ErrCircuitOpen, c.opts.Edge)
			if lastErr != nil {
				open = fmt.Errorf("%w on edge %q (last failure: %v)", ErrCircuitOpen, c.opts.Edge, lastErr)
			}
			if req.FailFast {
				c.failfast.Inc()
				return Response{}, markOutage(open)
			}
			if wait <= 0 {
				wait = time.Millisecond
			}
			if !deadline.IsZero() && c.now().Add(wait).After(deadline) {
				c.giveups.Inc()
				return Response{}, markOutage(fmt.Errorf("netretry: %s: total retry deadline %v exhausted waiting out an open circuit: %w",
					req.Path, c.opts.TotalDeadline, open))
			}
			if err := ctx.Err(); err != nil {
				return Response{}, err
			}
			// Waiting for a probe slot consumes no attempt: a client that
			// rides out an outage keeps its attempt budget for real tries.
			c.sleep(wait)
			continue
		}

		status, hdr, body, err := c.attempt(ctx, req)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return Response{}, ctx.Err()
			}
			c.breaker.Failure()
			lastErr = fmt.Errorf("netretry: %s: %w", req.Path, err)
		case Retryable(status):
			if status == http.StatusTooManyRequests {
				// Backpressure is contact, not an outage.
				c.breaker.Success()
			} else {
				c.breaker.Failure()
			}
			lastErr = fmt.Errorf("netretry: %s: server answered %d: %s",
				req.Path, status, strings.TrimSpace(string(body)))
		default:
			c.breaker.Success()
			return Response{Status: status, Header: hdr, Body: body}, nil
		}

		if attempt >= c.opts.Attempts {
			c.giveups.Inc()
			return Response{}, markOutage(lastErr)
		}
		if err := ctx.Err(); err != nil {
			return Response{}, err
		}
		c.mu.Lock()
		jittered := delay + time.Duration(c.rng.Int63n(int64(delay)/2+1))
		c.mu.Unlock()
		if !deadline.IsZero() && c.now().Add(jittered).After(deadline) {
			// Never start a sleep that would overrun the budget.
			c.giveups.Inc()
			return Response{}, markOutage(fmt.Errorf("netretry: %s: total retry deadline %v exhausted after %d attempts: %w",
				req.Path, c.opts.TotalDeadline, attempt, lastErr))
		}
		c.retries.Inc()
		c.sleep(jittered)
		delay *= 2
		if delay > c.opts.MaxDelay {
			delay = c.opts.MaxDelay
		}
		attempt++
	}
}

// attempt performs a single HTTP exchange under the per-attempt timeout.
func (c *Client) attempt(ctx context.Context, req Request) (int, http.Header, []byte, error) {
	reqCtx, cancel := context.WithTimeout(ctx, c.opts.Timeout+req.ExtraTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(reqCtx, req.Method, c.base+req.Path, bytes.NewReader(req.Body))
	if err != nil {
		return 0, nil, nil, err
	}
	if req.ContentType != "" {
		hreq.Header.Set("Content-Type", req.ContentType)
	}
	for k, vs := range req.Header {
		for _, v := range vs {
			hreq.Header.Add(k, v)
		}
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	// One sized read into the caller's scratch (or one exact allocation):
	// no growth copies whenever the server declared a length.
	body, err := ReadBody(resp.Body, resp.ContentLength, maxBodyBytes, req.Scratch)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, resp.Header, body, nil
}

// NormalizeBase returns baseURL with an http:// scheme (added when absent)
// and no trailing slash.
func NormalizeBase(baseURL string) string {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	return strings.TrimRight(baseURL, "/")
}
