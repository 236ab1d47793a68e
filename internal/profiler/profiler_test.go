package profiler

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestAddAccumulates: each Add is one run of its phase, timed between two
// clock reads; durations sum exactly and every call counts once.
func TestAddAccumulates(t *testing.T) {
	var p Profile
	t0 := time.Now()
	time.Sleep(2 * time.Millisecond)
	t1 := time.Now()
	p.Add(PhaseSampling, t1.Sub(t0))
	p.Add(PhaseSampling, 3*time.Millisecond)
	if got, want := p.Duration(PhaseSampling), t1.Sub(t0)+3*time.Millisecond; got != want {
		t.Fatalf("duration = %v, want %v", got, want)
	}
	if p.Count(PhaseSampling) != 2 {
		t.Fatalf("count = %d, want 2", p.Count(PhaseSampling))
	}
	if p.Count(PhaseTargetQ) != 0 {
		t.Fatalf("target-q count = %d, want 0", p.Count(PhaseTargetQ))
	}
}

func TestAddAndTotals(t *testing.T) {
	var p Profile
	p.Add(PhaseSampling, 60*time.Millisecond)
	p.Add(PhaseTargetQ, 25*time.Millisecond)
	p.Add(PhaseQPLoss, 15*time.Millisecond)
	p.Add(PhaseActionSelection, 50*time.Millisecond)
	p.Add(PhaseEnvStep, 30*time.Millisecond)
	p.Add(PhaseReplayAdd, 20*time.Millisecond)

	if got := p.Total(); got != 200*time.Millisecond {
		t.Fatalf("Total = %v", got)
	}
	if got := p.UpdateTrainers(); got != 100*time.Millisecond {
		t.Fatalf("UpdateTrainers = %v", got)
	}
	if got := p.Interaction(); got != 100*time.Millisecond {
		t.Fatalf("Interaction = %v", got)
	}
	if got := p.Percent(PhaseSampling); got != 30 {
		t.Fatalf("Percent(sampling) = %v, want 30", got)
	}
	if got := p.PercentOfUpdate(PhaseSampling); got != 60 {
		t.Fatalf("PercentOfUpdate(sampling) = %v, want 60", got)
	}
}

func TestPercentZeroTotal(t *testing.T) {
	var p Profile
	if p.Percent(PhaseSampling) != 0 || p.PercentOfUpdate(PhaseSampling) != 0 {
		t.Fatal("empty profile should report 0%")
	}
}

func TestResetAndMerge(t *testing.T) {
	var a, b Profile
	a.Add(PhaseSampling, time.Second)
	b.Add(PhaseSampling, 2*time.Second)
	b.Add(PhaseTargetQ, time.Second)
	a.Merge(&b)
	if a.Duration(PhaseSampling) != 3*time.Second || a.Duration(PhaseTargetQ) != time.Second {
		t.Fatalf("Merge: %v/%v", a.Duration(PhaseSampling), a.Duration(PhaseTargetQ))
	}
	a.Reset()
	if a.Total() != 0 {
		t.Fatal("Reset should clear all durations")
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseSampling.String() != "mini-batch-sampling" {
		t.Fatalf("String = %q", PhaseSampling.String())
	}
	if got := Phase(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("out-of-range phase String = %q", got)
	}
}

func TestPhasesCoversAll(t *testing.T) {
	if len(Phases()) != int(numPhases) {
		t.Fatalf("Phases() returned %d, want %d", len(Phases()), numPhases)
	}
}

func TestEventCounters(t *testing.T) {
	var p Profile
	if p.EventCount(EventWatchdogRollback) != 0 {
		t.Fatal("fresh profile should report zero events")
	}
	p.Event(EventWatchdogRollback, 1)
	p.Event(EventWatchdogRollback, 2)
	p.Event(EventPriorityClamped, 5)
	if got := p.EventCount(EventWatchdogRollback); got != 3 {
		t.Fatalf("EventCount(rollback) = %d, want 3", got)
	}
	if got := p.Events(); len(got) != 2 || got[0] != EventPriorityClamped {
		t.Fatalf("Events() = %v", got)
	}
	r := p.Report()
	for _, want := range []string{EventWatchdogRollback, EventPriorityClamped} {
		if !strings.Contains(r, want) {
			t.Fatalf("Report missing event %q:\n%s", want, r)
		}
	}

	var other Profile
	other.Event(EventPriorityClamped, 7)
	p.Merge(&other)
	if got := p.EventCount(EventPriorityClamped); got != 12 {
		t.Fatalf("merged EventCount = %d, want 12", got)
	}
	p.Reset()
	if len(p.Events()) != 0 {
		t.Fatal("Reset should clear events")
	}
}

// TestResetKeepsEventMap verifies the DrainInto-consistent Reset: the
// allocated events map survives and is cleared in place, so a profile that
// is Reset between measurement windows does not reallocate per window.
func TestResetKeepsEventMap(t *testing.T) {
	var p Profile
	p.Event(EventCheckpointWritten, 3)
	p.Reset()
	if p.events == nil {
		t.Fatal("Reset discarded the allocated events map")
	}
	if len(p.events) != 0 {
		t.Fatalf("Reset left %d events behind", len(p.events))
	}
	p.Event(EventCheckpointWritten, 1)
	if got := p.EventCount(EventCheckpointWritten); got != 1 {
		t.Fatalf("EventCount after Reset = %d, want 1", got)
	}
	p.Add(PhaseSampling, time.Millisecond)
	p.Reset()
	if p.Count(PhaseSampling) != 0 || p.Duration(PhaseSampling) != 0 {
		t.Fatalf("Reset left count %d, duration %v", p.Count(PhaseSampling), p.Duration(PhaseSampling))
	}
	p.Add(PhaseSampling, time.Millisecond)
	if p.Count(PhaseSampling) != 1 {
		t.Fatalf("count after Reset and Add = %d, want 1", p.Count(PhaseSampling))
	}
}

// recordingObserver captures observer callbacks for the tests below. It
// only needs to be single-threaded here.
type recordingObserver struct {
	phases map[Phase]time.Duration
	calls  map[Phase]uint64
	events map[string]uint64
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{
		phases: make(map[Phase]time.Duration),
		calls:  make(map[Phase]uint64),
		events: make(map[string]uint64),
	}
}

func (o *recordingObserver) ObservePhase(p Phase, d time.Duration) {
	o.phases[p] += d
	o.calls[p]++
}

func (o *recordingObserver) ObserveEvent(name string, n uint64) { o.events[name] += n }

func TestObserverMirrorsAddEvent(t *testing.T) {
	obs := newRecordingObserver()
	var p Profile
	p.SetObserver(obs)
	p.Add(PhaseSampling, 10*time.Millisecond)
	p.Add(PhaseSampling, 5*time.Millisecond)
	t0 := time.Now()
	p.Add(PhaseEnvStep, time.Since(t0))
	p.Event(EventWatchdogRollback, 2)

	if got := obs.phases[PhaseSampling]; got != 15*time.Millisecond {
		t.Fatalf("observed sampling = %v, want 15ms", got)
	}
	if obs.calls[PhaseSampling] != 2 || obs.calls[PhaseEnvStep] != 1 {
		t.Fatalf("observed calls = %v", obs.calls)
	}
	if obs.phases[PhaseEnvStep] != p.Duration(PhaseEnvStep) {
		t.Fatalf("observed env-step %v != profile %v", obs.phases[PhaseEnvStep], p.Duration(PhaseEnvStep))
	}
	if obs.events[EventWatchdogRollback] != 2 {
		t.Fatalf("observed events = %v", obs.events)
	}
}

// TestMergeDoesNotRenotify: observations flow to the observer exactly once,
// at record time. Merging an already-observed shard into an observed main
// profile must not double-count.
func TestMergeDoesNotRenotify(t *testing.T) {
	obs := newRecordingObserver()
	var main, shard Profile
	main.SetObserver(obs)
	shard.SetObserver(obs)
	shard.Add(PhaseTargetQ, time.Second)
	shard.Event(EventPriorityClamped, 4)
	shard.DrainInto(&main)

	if got := obs.phases[PhaseTargetQ]; got != time.Second {
		t.Fatalf("observed target-q = %v after drain, want 1s (no re-notify)", got)
	}
	if got := obs.events[EventPriorityClamped]; got != 4 {
		t.Fatalf("observed clamp events = %d after drain, want 4", got)
	}
	if main.Duration(PhaseTargetQ) != time.Second || main.Count(PhaseTargetQ) != 1 || main.EventCount(EventPriorityClamped) != 4 {
		t.Fatal("drain lost data")
	}
	if shard.Duration(PhaseTargetQ) != 0 || shard.Count(PhaseTargetQ) != 0 || shard.EventCount(EventPriorityClamped) != 0 {
		t.Fatal("drain left data in the shard")
	}
}

func TestObserverSurvivesReset(t *testing.T) {
	obs := newRecordingObserver()
	var p Profile
	p.SetObserver(obs)
	p.Reset()
	p.Add(PhaseQPLoss, time.Millisecond)
	if obs.calls[PhaseQPLoss] != 1 {
		t.Fatal("observer detached by Reset")
	}
}

func TestMarshalJSON(t *testing.T) {
	var p Profile
	p.Add(PhaseSampling, 60*time.Millisecond)
	p.Add(PhaseTargetQ, 25*time.Millisecond)
	p.Add(PhaseQPLoss, 15*time.Millisecond)
	p.Add(PhaseActionSelection, 100*time.Millisecond)
	p.Event(EventCheckpointWritten, 2)

	data, err := json.Marshal(&p)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Phases []struct {
			Phase          string  `json:"phase"`
			Nanos          int64   `json:"nanos"`
			Calls          uint64  `json:"calls"`
			PercentOfTotal float64 `json:"percent_of_total"`
		} `json:"phases"`
		TotalNanos          int64             `json:"total_nanos"`
		UpdateTrainersNanos int64             `json:"update_all_trainers_nanos"`
		InteractionNanos    int64             `json:"interaction_nanos"`
		UpdateSharePct      float64           `json:"update_share_percent"`
		InteractionSharePct float64           `json:"interaction_share_percent"`
		Events              map[string]uint64 `json:"events"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("round-trip: %v\n%s", err, data)
	}
	if len(got.Phases) != 4 {
		t.Fatalf("phases = %d, want 4 (zero phases omitted):\n%s", len(got.Phases), data)
	}
	if got.TotalNanos != (200 * time.Millisecond).Nanoseconds() {
		t.Fatalf("total_nanos = %d", got.TotalNanos)
	}
	if got.UpdateTrainersNanos != (100 * time.Millisecond).Nanoseconds() {
		t.Fatalf("update_all_trainers_nanos = %d", got.UpdateTrainersNanos)
	}
	if got.InteractionNanos != (100 * time.Millisecond).Nanoseconds() {
		t.Fatalf("interaction_nanos = %d", got.InteractionNanos)
	}
	if got.UpdateSharePct != 50 || got.InteractionSharePct != 50 {
		t.Fatalf("shares = %v/%v, want 50/50", got.UpdateSharePct, got.InteractionSharePct)
	}
	if got.Events[EventCheckpointWritten] != 2 {
		t.Fatalf("events = %v", got.Events)
	}
	for _, ph := range got.Phases {
		if ph.Phase == "mini-batch-sampling" && ph.PercentOfTotal != 30 {
			t.Fatalf("sampling percent = %v, want 30", ph.PercentOfTotal)
		}
	}
}

func TestReportContainsPhases(t *testing.T) {
	var p Profile
	p.Add(PhaseSampling, 10*time.Millisecond)
	p.Add(PhaseTargetQ, 5*time.Millisecond)
	r := p.Report()
	for _, want := range []string{"mini-batch-sampling", "target-q", "update-all-trainers", "total"} {
		if !strings.Contains(r, want) {
			t.Fatalf("Report missing %q:\n%s", want, r)
		}
	}
	if strings.Contains(r, "env-step") {
		t.Fatal("Report should omit phases with no data")
	}
}
