package netretry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"marlperf/internal/telemetry"
)

// fakeClock advances only when the client sleeps, so backoff tests run in
// zero wall time while still exercising deadline arithmetic.
type fakeClock struct {
	t     time.Time
	slept []time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0)}
}

func (f *fakeClock) now() time.Time { return f.t }
func (f *fakeClock) sleep(d time.Duration) {
	f.slept = append(f.slept, d)
	f.t = f.t.Add(d)
}

// scriptRT answers the i-th request with script[min(i, len-1)]. A negative
// status means a transport error.
type scriptRT struct {
	script []int
	calls  int
}

func (s *scriptRT) RoundTrip(r *http.Request) (*http.Response, error) {
	i := s.calls
	s.calls++
	if i >= len(s.script) {
		i = len(s.script) - 1
	}
	status := s.script[i]
	if status < 0 {
		return nil, errors.New("injected transport error")
	}
	return &http.Response{
		StatusCode: status,
		Body:       io.NopCloser(strings.NewReader(fmt.Sprintf("status %d", status))),
		Header:     make(http.Header),
	}, nil
}

func testClient(t *testing.T, opts Options, rt http.RoundTripper) (*Client, *fakeClock) {
	t.Helper()
	opts.Transport = rt
	c := New("127.0.0.1:1", opts)
	clk := newFakeClock()
	c.SetClock(clk.now, clk.sleep)
	return c, clk
}

func TestBackoffScheduleDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		c, clk := testClient(t, Options{
			Attempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond,
			JitterSeed: seed, BreakerThreshold: -1,
		}, &scriptRT{script: []int{503}})
		if _, err := c.Do(context.Background(), Request{Path: "/x"}); err == nil {
			t.Fatal("expected failure against an all-503 server")
		}
		return clk.slept
	}
	a, b := run(42), run(42)
	if len(a) != 7 {
		t.Fatalf("8 attempts should sleep 7 times, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i, a[i], b[i])
		}
	}
	other := run(43)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced an identical jitter schedule")
	}
}

func TestBackoffBoundsAndCap(t *testing.T) {
	base, cap := 10*time.Millisecond, 80*time.Millisecond
	c, clk := testClient(t, Options{
		Attempts: 10, BaseDelay: base, MaxDelay: cap,
		JitterSeed: 7, BreakerThreshold: -1,
	}, &scriptRT{script: []int{503}})
	c.Do(context.Background(), Request{Path: "/x"})
	want := base
	for i, d := range clk.slept {
		lo, hi := want, want+want/2
		if d < lo || d > hi {
			t.Fatalf("retry %d slept %v, want within [%v, %v]", i, d, lo, hi)
		}
		want *= 2
		if want > cap {
			want = cap
		}
	}
}

func TestTotalDeadlineNeverExceeded(t *testing.T) {
	cases := []struct {
		name     string
		deadline time.Duration
		attempts int
	}{
		{"tight", 25 * time.Millisecond, 1000},
		{"medium", 200 * time.Millisecond, 1000},
		{"loose", 2 * time.Second, 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, clk := testClient(t, Options{
				Attempts: tc.attempts, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond,
				JitterSeed: 11, TotalDeadline: tc.deadline, BreakerThreshold: -1,
			}, &scriptRT{script: []int{503}})
			start := clk.now()
			_, err := c.Do(context.Background(), Request{Path: "/x"})
			if err == nil {
				t.Fatal("expected deadline-exhausted failure")
			}
			if !strings.Contains(err.Error(), "total retry deadline") {
				t.Fatalf("error should name the total deadline, got: %v", err)
			}
			if !Outage(err) {
				t.Fatalf("deadline exhaustion should classify as an outage: %v", err)
			}
			if elapsed := clk.now().Sub(start); elapsed > tc.deadline {
				t.Fatalf("retry loop consumed %v, budget was %v", elapsed, tc.deadline)
			}
		})
	}
}

func TestNoDeadlineMessageWithoutBudget(t *testing.T) {
	c, _ := testClient(t, Options{
		Attempts: 3, BaseDelay: time.Millisecond, JitterSeed: 5, BreakerThreshold: -1,
	}, &scriptRT{script: []int{503}})
	_, err := c.Do(context.Background(), Request{Path: "/x"})
	if err == nil || strings.Contains(err.Error(), "total retry deadline") {
		t.Fatalf("attempt-exhausted error should not mention a deadline: %v", err)
	}
	if !Outage(err) {
		t.Fatalf("exhausted retries should classify as an outage: %v", err)
	}
}

func TestRetriesTransientThenSucceeds(t *testing.T) {
	rt := &scriptRT{script: []int{503, -1, 429, 200}}
	c, clk := testClient(t, Options{
		Attempts: 8, BaseDelay: time.Millisecond, JitterSeed: 3, BreakerThreshold: -1,
	}, rt)
	resp, err := c.Do(context.Background(), Request{Path: "/x"})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d, want 200", resp.Status)
	}
	if rt.calls != 4 {
		t.Fatalf("transport saw %d calls, want 4", rt.calls)
	}
	if len(clk.slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(clk.slept))
	}
}

func TestNonRetryableStatusPassesThrough(t *testing.T) {
	rt := &scriptRT{script: []int{404}}
	c, clk := testClient(t, Options{Attempts: 5, BaseDelay: time.Millisecond, JitterSeed: 3}, rt)
	resp, err := c.Do(context.Background(), Request{Path: "/x"})
	if err != nil {
		t.Fatalf("a 404 is a definitive answer, not an error: %v", err)
	}
	if resp.Status != 404 || rt.calls != 1 || len(clk.slept) != 0 {
		t.Fatalf("404 should return immediately: status=%d calls=%d sleeps=%d",
			resp.Status, rt.calls, len(clk.slept))
	}
}

func TestContextCancelIsNotOutage(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, _ := testClient(t, Options{Attempts: 5, BaseDelay: time.Millisecond, JitterSeed: 3}, &scriptRT{script: []int{503}})
	_, err := c.Do(ctx, Request{Path: "/x"})
	if err == nil {
		t.Fatal("expected error from cancelled context")
	}
	if Outage(err) {
		t.Fatalf("caller cancellation must not classify as a peer outage: %v", err)
	}
}

func TestBreakerOpensFailsFastAndRecovers(t *testing.T) {
	reg := telemetry.NewRegistry()
	rt := &scriptRT{script: []int{-1}}
	c, clk := testClient(t, Options{
		Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
		JitterSeed: 9, BreakerThreshold: 3, BreakerCooldown: 100 * time.Millisecond,
		Edge: "test", Registry: reg,
	}, rt)

	if _, err := c.Do(context.Background(), Request{Path: "/x"}); err == nil {
		t.Fatal("expected failure")
	}
	if got := c.breaker.state; got != BreakerOpen {
		t.Fatalf("after 3 consecutive failures breaker = %v, want open", got)
	}
	if g := reg.Gauge("marl_circuit_state", "edge", "test").Value(); g != float64(BreakerOpen) {
		t.Fatalf("marl_circuit_state = %v, want %v", g, float64(BreakerOpen))
	}

	// Fail-fast while open: rejected locally, no transport call, outage.
	calls := rt.calls
	_, err := c.Do(context.Background(), Request{Path: "/x", FailFast: true})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("fail-fast while open: err = %v, want ErrCircuitOpen", err)
	}
	if !Outage(err) {
		t.Fatal("open circuit should classify as an outage")
	}
	if rt.calls != calls {
		t.Fatalf("fail-fast reached the transport (%d calls, was %d)", rt.calls, calls)
	}

	// Ride-through: waits out the cooldown, probes, and the now-healthy
	// server closes the circuit.
	rt.script = []int{200}
	resp, err := c.Do(context.Background(), Request{Path: "/x"})
	if err != nil || resp.Status != 200 {
		t.Fatalf("ride-through after recovery: resp=%+v err=%v", resp, err)
	}
	if got := c.breaker.state; got != BreakerClosed {
		t.Fatalf("after successful probe breaker = %v, want closed", got)
	}
	var waited time.Duration
	for _, d := range clk.slept {
		waited += d
	}
	if waited < 100*time.Millisecond {
		t.Fatalf("ride-through never waited out the cooldown (total sleeps %v)", waited)
	}
	if reg.Counter("marl_circuit_open_total", "edge", "test").Value() == 0 {
		t.Fatal("marl_circuit_open_total never incremented")
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(2, 50*time.Millisecond, nil, "e")
	b.setClock(clk.now)
	b.Failure()
	b.Failure()
	if b.state != BreakerOpen {
		t.Fatalf("state = %v, want open", b.state)
	}
	if _, ok := b.Allow(); ok {
		t.Fatal("open breaker within cooldown should not allow")
	}
	clk.t = clk.t.Add(51 * time.Millisecond)
	if _, ok := b.Allow(); !ok {
		t.Fatal("cooldown elapsed: probe slot should open")
	}
	if b.state != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.state)
	}
	if _, ok := b.Allow(); ok {
		t.Fatal("half-open admits exactly one probe")
	}
	b.Failure()
	if b.state != BreakerOpen {
		t.Fatalf("probe failure should reopen, state = %v", b.state)
	}
	clk.t = clk.t.Add(51 * time.Millisecond)
	if _, ok := b.Allow(); !ok {
		t.Fatal("second probe slot should open after re-armed cooldown")
	}
	b.Success()
	if b.state != BreakerClosed {
		t.Fatalf("probe success should close, state = %v", b.state)
	}
}

func Test429CountsAsContactNotOutage(t *testing.T) {
	c, _ := testClient(t, Options{
		Attempts: 4, BaseDelay: time.Millisecond, JitterSeed: 9, BreakerThreshold: 2,
	}, &scriptRT{script: []int{429}})
	if _, err := c.Do(context.Background(), Request{Path: "/x"}); err == nil {
		t.Fatal("expected exhausted-retries failure against an all-429 server")
	}
	if got := c.breaker.state; got != BreakerClosed {
		t.Fatalf("429s tripped the breaker (state %v); backpressure is not an outage", got)
	}
}

func TestRetryMetricsExported(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, _ := testClient(t, Options{
		Attempts: 3, BaseDelay: time.Millisecond, JitterSeed: 9,
		BreakerThreshold: -1, Edge: "metrics", Registry: reg,
	}, &scriptRT{script: []int{503}})
	c.Do(context.Background(), Request{Path: "/x"})
	if got := reg.Counter("marl_retry_total", "edge", "metrics").Value(); got != 2 {
		t.Fatalf("marl_retry_total = %d, want 2", got)
	}
	if got := reg.Counter("marl_retry_giveup_total", "edge", "metrics").Value(); got != 1 {
		t.Fatalf("marl_retry_giveup_total = %d, want 1", got)
	}
}

// Conns > 1 with no Transport stripes the client: its transport keeps Conns
// idle connections to the one host instead of net/http's two. A caller's
// Transport always wins, and Conns ≤ 1 keeps the default.
func TestConnsStripeTheTransport(t *testing.T) {
	tr, ok := New("h:1", Options{Conns: 4}).hc.Transport.(*http.Transport)
	if !ok {
		t.Fatal("Conns 4 built no *http.Transport")
	}
	if tr.MaxIdleConnsPerHost != 4 || tr.MaxIdleConns != 8 {
		t.Errorf("Conns 4: MaxIdleConnsPerHost %d, MaxIdleConns %d; want 4 and 8", tr.MaxIdleConnsPerHost, tr.MaxIdleConns)
	}
	own := &scriptRT{script: []int{200}}
	if got := New("h:1", Options{Conns: 4, Transport: own}).hc.Transport; got != own {
		t.Errorf("Conns replaced the caller's transport: %T", got)
	}
	for _, conns := range []int{0, 1} {
		if got := New("h:1", Options{Conns: conns}).hc.Transport; got != nil {
			t.Errorf("Conns %d: transport %T, want the default", conns, got)
		}
	}
}
