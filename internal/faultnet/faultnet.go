// Package faultnet injects network and I/O faults deterministically and
// explores seeded fault schedules; it is test support (it imports testing)
// that no binary links. The I/O faults (iofault.go) are a writer that fails
// or tears, a reader that flips a bit, and in-place damage to a stored
// file, for the tests of every reader and of snapshot recovery. An Injector
// wraps http.RoundTripper and http.Handler per named edge. A Rule drops,
// errors or delays requests by probability, from a stream that is a pure
// function of (seed, edge name, request order): each edge draws from its
// own RNG seeded with seed ^ fnv64(edge), the same number of variates per
// request whatever the rule, so no edge or rule change perturbs another
// edge's schedule. Events (schedule.go) fire faults and actions on chosen
// request ordinals, and Explore shrinks a failing seed's schedule to its
// shortest failing prefix.
package faultnet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ErrInjected is the root of every client-side fault this package
// fabricates; errors.Is(err, ErrInjected) identifies injected faults in
// test assertions.
var ErrInjected = errors.New("faultnet: injected fault")

// Rule describes the faults applied to one edge. Zero value = pass
// everything through.
type Rule struct {
	// Drop is the probability [0,1] a request is blackholed: the client
	// side sees a transport error, the server side an aborted connection.
	Drop float64
	// Error is the probability [0,1] a request is answered with Status
	// without reaching the wrapped transport/handler.
	Error float64
	// Status is the synthesized error status (default 503).
	Status int
	// Delay stalls matching requests before forwarding.
	Delay time.Duration
	// DelayProb is the probability a request is delayed; 0 with Delay set
	// means every request.
	DelayProb float64
}

func (r Rule) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", r.Drop}, {"error", r.Error}, {"delayp", r.DelayProb}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faultnet: %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if r.Delay < 0 {
		return fmt.Errorf("faultnet: negative delay %v", r.Delay)
	}
	return nil
}

// Counts is a snapshot of one edge's traffic and injected faults.
type Counts struct {
	Requests uint64 // total requests seen
	Dropped  uint64 // blackholed by probability
	Errored  uint64 // answered with a synthesized error status
	Delayed  uint64 // stalled before forwarding
}

type fate int

const (
	fateForward fate = iota
	fateDrop
	fateError
)

type edge struct {
	mu     sync.Mutex
	name   string
	rule   Rule
	rng    *rand.Rand
	counts Counts
}

// decide draws this request's fate. All three variates are always drawn
// so the stream stays aligned across rule changes.
func (e *edge) decide() (fate, int, time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.counts.Requests++
	uDrop, uErr, uDelay := e.rng.Float64(), e.rng.Float64(), e.rng.Float64()
	r := e.rule
	if uDrop < r.Drop {
		e.counts.Dropped++
		return fateDrop, 0, 0
	}
	if uErr < r.Error {
		e.counts.Errored++
		status := r.Status
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		return fateError, status, 0
	}
	if r.Delay > 0 {
		dp := r.DelayProb
		if dp == 0 {
			dp = 1
		}
		if uDelay < dp {
			e.counts.Delayed++
			return fateForward, 0, r.Delay
		}
	}
	return fateForward, 0, 0
}

// Injector holds per-edge fault state. One injector is typically shared
// by every wrapped transport/handler of a test so it can steer all edges
// from one place.
type Injector struct {
	seed int64

	mu    sync.Mutex
	edges map[string]*edge
	// The armed schedule (schedule.go), empty for none, and the requests
	// each edge has carried through the round trippers.
	events []*scheduled
	seen   map[string]uint64
	act    func(action string) error
	err    error
}

// New builds an injector whose per-edge schedules derive from seed.
func New(seed int64) *Injector {
	return &Injector{seed: seed, edges: make(map[string]*edge), seen: make(map[string]uint64)}
}

func (in *Injector) edgeFor(name string) *edge {
	in.mu.Lock()
	defer in.mu.Unlock()
	e := in.edges[name]
	if e == nil {
		h := fnv.New64a()
		h.Write([]byte(name))
		e = &edge{name: name, rng: rand.New(rand.NewSource(in.seed ^ int64(h.Sum64())))}
		in.edges[name] = e
	}
	return e
}

// SetRule installs (replacing) the fault rule for an edge.
func (in *Injector) SetRule(name string, r Rule) error {
	if err := r.validate(); err != nil {
		return err
	}
	e := in.edgeFor(name)
	e.mu.Lock()
	e.rule = r
	e.mu.Unlock()
	return nil
}

// Counts returns a snapshot of an edge's traffic counters.
func (in *Injector) Counts(name string) Counts {
	e := in.edgeFor(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counts
}

type roundTripper struct {
	in   *Injector
	edge func(*http.Request) string
	base http.RoundTripper
}

// RoundTripper wraps base (nil = http.DefaultTransport) with the edge's
// faults. Dropped requests surface as transport errors wrapping
// ErrInjected — exactly what an unreachable peer looks like to a client.
func (in *Injector) RoundTripper(name string, base http.RoundTripper) http.RoundTripper {
	return in.Route(func(*http.Request) string { return name }, base)
}

// Route is RoundTripper with each request's edge named by edge(req), so one
// client's traffic can count on one edge per server and request kind.
func (in *Injector) Route(edge func(*http.Request) string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &roundTripper{in: in, edge: edge, base: base}
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	e := rt.in.edgeFor(rt.edge(req))
	f, status, delay := e.decide()
	fault, before, after := rt.in.step(e.name)
	if f == fateForward {
		switch fault {
		case Drop, Partition:
			f = fateDrop
		case Error:
			f, status = fateError, http.StatusServiceUnavailable
		case Delay:
			delay += time.Millisecond
		}
	}
	rt.in.run(before)
	defer rt.in.run(after)
	switch f {
	case fateDrop:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("%w: request dropped on edge %q", ErrInjected, e.name)
	case fateError:
		if req.Body != nil {
			req.Body.Close()
		}
		return &http.Response{
			Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
			StatusCode: status,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:    http.NoBody,
			Request: req,
		}, nil
	}
	if delay > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(delay):
		}
	}
	resp, err := rt.base.RoundTrip(req)
	if fault != LoseReply {
		return resp, err
	}
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return nil, fmt.Errorf("%w: reply lost on edge %q", ErrInjected, e.name)
}

// Handler wraps h with the edge's fault rule on the server side. Dropped
// requests abort the connection mid-response (the client sees a transport
// error), errored requests answer with the rule's status.
func (in *Injector) Handler(name string, h http.Handler) http.Handler {
	e := in.edgeFor(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, status, delay := e.decide()
		switch f {
		case fateDrop:
			panic(http.ErrAbortHandler)
		case fateError:
			http.Error(w, "faultnet: injected error", status)
			return
		}
		if delay > 0 {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(delay):
			}
		}
		h.ServeHTTP(w, r)
	})
}
