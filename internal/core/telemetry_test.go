package core

import (
	"sync"
	"testing"
	"time"

	"marlperf/internal/mpe"
	"marlperf/internal/profiler"
)

// syncObserver is a concurrency-safe observer: worker shards call it
// concurrently during the parallel update stage.
type syncObserver struct {
	mu     sync.Mutex
	durs   map[profiler.Phase]time.Duration
	counts map[profiler.Phase]uint64
	events map[string]uint64
}

func newSyncObserver() *syncObserver {
	return &syncObserver{
		durs:   make(map[profiler.Phase]time.Duration),
		counts: make(map[profiler.Phase]uint64),
		events: make(map[string]uint64),
	}
}

func (o *syncObserver) ObservePhase(p profiler.Phase, d time.Duration) {
	o.mu.Lock()
	o.durs[p] += d
	o.counts[p]++
	o.mu.Unlock()
}

func (o *syncObserver) ObserveEvent(name string, n uint64) {
	o.mu.Lock()
	o.events[name] += n
	o.mu.Unlock()
}

func telemetryTestTrainer(t *testing.T, workers int) *Trainer {
	t.Helper()
	cfg := DefaultConfig(MADDPG)
	cfg.BatchSize = 32
	cfg.BufferCapacity = 4096
	cfg.WarmupSize = 32
	cfg.UpdateEvery = 10
	cfg.UpdateWorkers = workers
	tr, err := NewTrainer(cfg, mpe.NewPredatorPrey(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

// TestPhaseObserverMatchesProfile is the core half of the acceptance
// criterion: every phase duration and event the profiler accumulates is
// observed exactly once, so observer totals equal profile totals — serial
// and parallel.
func TestPhaseObserverMatchesProfile(t *testing.T) {
	for _, workers := range []int{1, 4} {
		obs := newSyncObserver()
		tr := telemetryTestTrainer(t, workers)
		tr.SetPhaseObserver(obs)
		tr.RunEpisodes(6, nil)

		prof := tr.Profile()
		for _, p := range profiler.Phases() {
			if got, want := obs.counts[p], prof.Count(p); got != want {
				t.Fatalf("workers=%d phase %v: observed %d calls, profile has %d", workers, p, got, want)
			}
			if got, want := obs.durs[p], prof.Duration(p); got != want {
				t.Fatalf("workers=%d phase %v: observed %v, profile has %v", workers, p, got, want)
			}
		}
		for _, name := range prof.Events() {
			if got, want := obs.events[name], prof.EventCount(name); got != want {
				t.Fatalf("workers=%d event %q: observed %d, profile has %d", workers, name, got, want)
			}
		}
		if prof.Count(profiler.PhaseSampling) == 0 {
			t.Fatalf("workers=%d: no sampling observations — test exercised nothing", workers)
		}
	}
}

// TestObserverSetBeforeScratchBuilt: SetPhaseObserver before the first
// update must cover shards created lazily afterwards.
func TestObserverSetBeforeScratchBuilt(t *testing.T) {
	obs := newSyncObserver()
	tr := telemetryTestTrainer(t, 2)
	tr.SetPhaseObserver(obs) // scratch arenas do not exist yet
	tr.RunEpisodes(2, nil)
	if obs.counts[profiler.PhaseSampling] != tr.Profile().Count(profiler.PhaseSampling) {
		t.Fatal("lazily built worker shards missed the observer")
	}
}

// TestUpdateListenerEmitsPerUpdate checks the run-event contract: exactly
// one event per update stage, monotone step/update indices, correct
// sampler/worker metadata, and phase-micro deltas that sum back to the
// profiler totals (to microsecond rounding).
func TestUpdateListenerEmitsPerUpdate(t *testing.T) {
	tr := telemetryTestTrainer(t, 2)
	var events []UpdateEvent
	tr.SetUpdateListener(func(ev UpdateEvent) { events = append(events, ev) })
	tr.RunEpisodes(6, nil)

	if len(events) != tr.UpdateCount() {
		t.Fatalf("got %d events for %d updates", len(events), tr.UpdateCount())
	}
	if len(events) == 0 {
		t.Fatal("no updates ran — test exercised nothing")
	}
	phaseSums := make(map[string]int64)
	for i, ev := range events {
		if ev.Update != i+1 {
			t.Fatalf("event %d has update index %d", i, ev.Update)
		}
		if i > 0 && ev.Step <= events[i-1].Step {
			t.Fatalf("steps not increasing: %d then %d", events[i-1].Step, ev.Step)
		}
		if ev.Sampler != "uniform" {
			t.Fatalf("sampler = %q", ev.Sampler)
		}
		if ev.Workers != tr.updateWorkers {
			t.Fatalf("workers = %d, want %d", ev.Workers, tr.updateWorkers)
		}
		if ev.TimeUnixNano == 0 {
			t.Fatal("missing timestamp")
		}
		for phase, us := range ev.PhaseMicros {
			phaseSums[phase] += us
		}
	}
	// Deltas must reassemble the profiler totals up to 1µs rounding per
	// event, for every phase that appears.
	prof := tr.Profile()
	for _, p := range profiler.Phases() {
		total := prof.Duration(p).Microseconds()
		if total == 0 {
			continue
		}
		got := phaseSums[p.String()]
		slack := int64(len(events) + 1) // rounding: ≤1µs per emission + tail
		// Interaction-phase time after the last update is not covered by
		// any event, so allow the remainder of one update interval.
		if got > total || total-got > slack+total/2 {
			t.Fatalf("phase %v: event deltas sum to %dµs, profile has %dµs", p, got, total)
		}
	}
	// The update-stage phases end exactly at the event, so they must agree
	// tightly.
	updTotal := prof.Duration(profiler.PhaseSampling).Microseconds()
	if got := phaseSums[profiler.PhaseSampling.String()]; got > updTotal || updTotal-got > int64(len(events)+1) {
		t.Fatalf("sampling deltas %dµs vs profile %dµs", got, updTotal)
	}
}

// TestUpdateListenerDetach: a nil listener stops emission.
func TestUpdateListenerDetach(t *testing.T) {
	tr := telemetryTestTrainer(t, 1)
	calls := 0
	tr.SetUpdateListener(func(UpdateEvent) { calls++ })
	tr.RunEpisodes(2, nil)
	if calls == 0 {
		t.Fatal("listener never fired")
	}
	seen := calls
	tr.SetUpdateListener(nil)
	tr.RunEpisodes(2, nil)
	if calls != seen {
		t.Fatal("detached listener still fired")
	}
}
