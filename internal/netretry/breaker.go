package netretry

import (
	"sync"
	"time"

	"marlperf/internal/telemetry"
)

// BreakerState is the circuit breaker's three-state machine.
type BreakerState int32

const (
	// BreakerClosed: requests flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: the cooldown elapsed; exactly one probe request is
	// allowed through. Its outcome closes or re-opens the circuit.
	BreakerHalfOpen
	// BreakerOpen: the edge is considered down; requests either wait for
	// the next probe slot or (fail-fast) are rejected locally.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return "unknown"
	}
}

// Breaker is a per-edge three-state circuit breaker. Consecutive contact
// failures (transport errors, 5xx) open it; a 429 counts as contact and
// resets the streak. While open, at most one probe per cooldown interval
// reaches the peer; a probe success closes the circuit, a probe failure
// re-arms the cooldown. All methods are safe for concurrent use, and all
// methods on a nil *Breaker are inert.
type Breaker struct {
	mu        sync.Mutex
	threshold int // <0: disabled
	cooldown  time.Duration
	now       func() time.Time
	state     BreakerState
	fails     int
	openedAt  time.Time
	probing   bool

	stateG  *telemetry.Gauge
	openedC *telemetry.Counter
}

// NewBreaker builds a breaker opening after threshold consecutive failures
// (0 = DefaultBreakerThreshold, negative disables) with the given probe
// cooldown, exporting marl_circuit_state / marl_circuit_open_total for
// edge on reg.
func NewBreaker(threshold int, cooldown time.Duration, reg *telemetry.Registry, edge string) *Breaker {
	if threshold == 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultMaxDelay
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	reg.SetHelp("marl_circuit_state", "Circuit breaker state per edge: 0 closed, 1 half-open, 2 open.")
	reg.SetHelp("marl_circuit_open_total", "Times the circuit breaker opened, per edge.")
	b := &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		stateG:    reg.Gauge("marl_circuit_state", "edge", edge),
		openedC:   reg.Counter("marl_circuit_open_total", "edge", edge),
	}
	b.stateG.Set(float64(BreakerClosed))
	return b
}

func (b *Breaker) disabled() bool { return b == nil || b.threshold < 0 }

// Allow reports whether a request may proceed now. When it may not, it
// returns how long to wait before the next probe slot.
func (b *Breaker) Allow() (wait time.Duration, ok bool) {
	if b.disabled() {
		return 0, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return 0, true
	case BreakerOpen:
		if wait := b.openedAt.Add(b.cooldown).Sub(b.now()); wait > 0 {
			return wait, false
		}
		b.setState(BreakerHalfOpen)
		b.probing = true
		return 0, true
	default: // half-open
		if b.probing {
			return b.cooldown, false
		}
		b.probing = true
		return 0, true
	}
}

// Success records a contact with the peer (any definitive answer,
// including backpressure): the failure streak resets and an open or
// half-open circuit closes.
func (b *Breaker) Success() {
	if b.disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.probing = false
	if b.state != BreakerClosed {
		b.setState(BreakerClosed)
	}
}

// Failure records a failed contact. The threshold-th consecutive failure
// (or any half-open probe failure) opens the circuit and arms the
// cooldown.
func (b *Breaker) Failure() {
	if b.disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	switch {
	case b.state == BreakerHalfOpen:
		b.openedAt = b.now()
		b.probing = false
		b.setState(BreakerOpen)
		b.openedC.Inc()
	case b.state == BreakerClosed && b.fails >= b.threshold:
		b.openedAt = b.now()
		b.probing = false
		b.setState(BreakerOpen)
		b.openedC.Inc()
	case b.state == BreakerOpen:
		// A failure that raced the open transition; re-arm the cooldown.
		b.openedAt = b.now()
		b.probing = false
	}
}

func (b *Breaker) setState(s BreakerState) {
	b.state = s
	b.stateG.Set(float64(s))
}

func (b *Breaker) setClock(now func() time.Time) {
	if b.disabled() || now == nil {
		return
	}
	b.mu.Lock()
	b.now = now
	b.mu.Unlock()
}
