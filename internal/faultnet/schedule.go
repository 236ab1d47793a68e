package faultnet

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// Fault is what a scheduled Event does to the request it fires on.
type Fault string

const (
	Pass      Fault = ""           // forwarded untouched: the event only runs its action
	Drop      Fault = "drop"       // never reaches the server; the client sees a transport error
	Error     Fault = "error"      // answered 503 without reaching the server
	Delay     Fault = "delay"      // forwarded a millisecond late
	LoseReply Fault = "lose-reply" // served, then the reply is lost: applied but never acknowledged
	Partition Fault = "partition"  // dropped, with every request on Edge while its window is open
)

// Event is one scheduled fault, keyed on request ordinals, never on time.
//
// A request belongs to edge E when its edge name is E or starts with E and
// a space, so "learner→g0m0" covers "learner→g0m0 append". The event fires
// on the Nth request of Edge counted from Play, or, when After is k > 0,
// from the request on which event k-1 fired. Do runs when it fires: before
// the request is forwarded, or, for LoseReply, once the server has served
// it. With Span > 0 the event opens a window that closes on the Span-th
// request of Until after it fired; Undo runs then, before that request is
// forwarded. A count that starts on one edge and runs on another is
// deterministic only if the two never carry requests at once.
type Event struct {
	Edge, Until string
	Nth, After  int
	Fault       Fault
	Do, Undo    string
	Span        int
}

func covers(e, name string) bool { return name == e || strings.HasPrefix(name, e+" ") }

// scheduled is one Event's progress through a run.
type scheduled struct {
	Event
	left, closeLeft int    // requests still to pass before it fires, before its window closes
	armed           bool   // counting toward Nth
	fired, closed   string // "edge #ordinal" it fired and its window closed on, "-" before
}

func (s *scheduled) open() bool { return s.fired != "-" && s.Span > 0 && s.closed == "-" }

// Play arms a schedule: from now on requests through the injector's round
// trippers advance the events' counts, and act runs their actions (on the
// requests' goroutines, so possibly on several at once).
func (in *Injector) Play(events []Event, act func(action string) error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.act = act
	for _, e := range events {
		in.events = append(in.events, &scheduled{Event: e, left: e.Nth, armed: e.After == 0, fired: "-", closed: "-"})
	}
}

// step advances the schedule by one request on edge name and returns what
// happens to it and the actions to run before it is forwarded and once it
// was served.
func (in *Injector) step(name string) (fault Fault, before, after []string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seen[name]++
	at := fmt.Sprintf("%s #%d", name, in.seen[name])
	for _, s := range in.events {
		if s.open() && covers(s.Until, name) {
			if s.closeLeft--; s.closeLeft == 0 {
				s.closed = at
				before = append(before, s.Undo)
			}
		}
	}
	var fired []int // 1-based, as After names its anchor
	for i, s := range in.events {
		if !s.armed || s.fired != "-" || !covers(s.Edge, name) {
			continue
		}
		if s.left--; s.left > 0 {
			continue
		}
		s.fired, s.closeLeft = at, s.Span
		fired = append(fired, i+1)
		if fault == Pass {
			fault = s.Fault
		}
		if s.Fault == LoseReply {
			after = append(after, s.Do)
		} else {
			before = append(before, s.Do)
		}
	}
	for _, s := range in.events {
		// An anchored event counts from the request after its anchor's.
		s.armed = s.armed || slices.Contains(fired, s.After)
		if fault == Pass && s.Fault == Partition && s.open() && covers(s.Edge, name) {
			fault = Drop
		}
	}
	return fault, before, after
}

// run performs actions, keeping the first error.
func (in *Injector) run(actions []string) {
	for _, a := range actions {
		if a == "" {
			continue
		}
		if err := in.act(a); err != nil {
			in.mu.Lock()
			in.err = cmp.Or(in.err, fmt.Errorf("faultnet: %s: %w", a, err))
			in.mu.Unlock()
		}
	}
}

// State returns the indexes of the schedule's open windows, and whether a
// schedule is armed with every event fired and every window closed.
func (in *Injector) State() (open []int, done bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	done = in.act != nil
	for i, s := range in.events {
		if s.open() {
			open = append(open, i)
		}
		done = done && s.fired != "-" && !s.open()
	}
	return open, done
}

// Heal closes every open window, running its Undo, and disarms the
// schedule. It returns one line per event — the request it fired on and,
// for a window, the one it closed on ("heal" when Heal closed it, "-" for
// what never happened) — and the first action error of the run.
func (in *Injector) Heal() (report []string, err error) {
	in.mu.Lock()
	var undo []string
	for i, s := range in.events {
		if s.open() {
			s.closed = "heal"
			undo = append(undo, s.Undo)
		}
		report = append(report, fmt.Sprintf("event %d fired on %s", i, s.fired))
		if s.Span > 0 {
			report[i] += ", closed on " + s.closed
		}
	}
	in.events = nil
	in.mu.Unlock()
	in.run(undo)
	in.mu.Lock()
	defer in.mu.Unlock()
	return report, in.err
}

// ErrVacuous marks a run that proved nothing (an event never fired, a fault
// went unmet); Explore does not shrink it: a shorter prefix proves less.
var ErrVacuous = errors.New("faultnet: the schedule proved nothing")

// Explore runs one subtest per seed, named seed=N. schedule(seed) is the
// seed's event list, a pure function of the seed; run executes a list on a
// fresh system and returns the first broken invariant (it fails t only when
// it cannot set the system up). A failing seed is rerun on ever longer
// prefixes of its list, and the failure names the seed, the shortest prefix
// that still fails and the go test line that replays the seed.
func Explore(t *testing.T, seeds []int64, schedule func(seed int64) []Event, run func(t *testing.T, seed int64, events []Event) error) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			events := schedule(seed)
			err := run(t, seed, events)
			replay := fmt.Sprintf("\nreplay: go test -run '%s$' .", t.Name())
			if errors.Is(err, ErrVacuous) {
				t.Fatalf("seed %d: %v%s", seed, err, replay)
			}
			if err == nil {
				return
			}
			prefix := events
			for k := range events {
				if perr := run(t, seed, events[:k]); perr != nil && !errors.Is(perr, ErrVacuous) {
					prefix, err = events[:k], perr
					break
				}
			}
			msg := fmt.Sprintf("seed %d: %v\nshortest failing prefix, %d of %d events:", seed, err, len(prefix), len(events))
			for i, e := range prefix {
				msg += fmt.Sprintf("\n  %d: %+v", i, e)
			}
			t.Fatal(msg + replay)
		})
	}
}
