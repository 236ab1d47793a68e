// Package profiler provides the phase-level timing instrumentation used to
// reproduce the paper's training-time breakdowns (Figures 2, 3 and 6): wall
// time per training phase, call counts, and percentage reports.
package profiler

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Phase identifies one stage of the MARL training loop.
type Phase int

// Phases of the training loop. ActionSelection, EnvStep and ReplayAdd make
// up the interaction stage; Sampling, TargetQ and QPLoss make up the
// "update all trainers" stage the paper drills into.
const (
	PhaseActionSelection Phase = iota
	PhaseEnvStep
	PhaseReplayAdd
	PhaseSampling
	PhaseTargetQ
	PhaseQPLoss
	PhaseLayoutReorg
	numPhases
)

var phaseNames = [numPhases]string{
	"action-selection",
	"env-step",
	"replay-add",
	"mini-batch-sampling",
	"target-q",
	"q-loss-p-loss",
	"layout-reorg",
}

// String returns the phase's report name.
func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Phases lists every phase in report order.
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// NumPhases returns how many phases exist, for callers that index
// per-phase state by int(Phase).
func NumPhases() int { return int(numPhases) }

// Observer receives every phase observation and event increment as it is
// recorded. A Profile is single-threaded, but the parallel update engine
// runs one Profile shard per worker, all pointed at the same observer —
// implementations must therefore be safe for concurrent use. Merge and
// DrainInto do NOT re-notify: an observation is delivered exactly once, at
// the Add or Event call that records it.
type Observer interface {
	ObservePhase(p Phase, d time.Duration)
	ObserveEvent(name string, n uint64)
}

// Profile accumulates wall time and call counts per phase. The zero value
// is ready to use. Not safe for concurrent use; the training loop is
// single-threaded like the paper's sampling path.
type Profile struct {
	durations [numPhases]time.Duration
	counts    [numPhases]uint64

	events map[string]uint64

	obs Observer
}

// SetObserver attaches o to the profile; every subsequent Add and Event
// call is mirrored to it. A nil o detaches. The observer survives
// Reset (it is configuration, not accumulated data).
func (pr *Profile) SetObserver(o Observer) { pr.obs = o }

// Well-known event names recorded by the resilience machinery.
const (
	EventWatchdogRollback  = "watchdog-rollback"
	EventPriorityClamped   = "priority-clamped"
	EventActionSanitized   = "action-sanitized"
	EventCheckpointWritten = "checkpoint-written"
	EventCheckpointRetried = "checkpoint-retried"
	EventResumeFallback    = "resume-fallback"
)

// Event increments the named event counter by n. Events count discrete
// occurrences (watchdog rollbacks, clamped priorities, checkpoint retries)
// rather than timed phases.
func (pr *Profile) Event(name string, n uint64) {
	if pr.events == nil {
		pr.events = make(map[string]uint64)
	}
	pr.events[name] += n
	if pr.obs != nil {
		pr.obs.ObserveEvent(name, n)
	}
}

// EventCount returns the accumulated count of the named event.
func (pr *Profile) EventCount(name string) uint64 { return pr.events[name] }

// Events returns the event names recorded so far, sorted.
func (pr *Profile) Events() []string {
	names := make([]string, 0, len(pr.events))
	for name := range pr.events {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Add records one run of phase p that lasted d. Callers time a phase
// between two clock reads, its edges, and pass t1.Sub(t0); a span of the
// phase recorded from the same two reads then lasts exactly d.
func (pr *Profile) Add(p Phase, d time.Duration) {
	pr.durations[p] += d
	pr.counts[p]++
	if pr.obs != nil {
		pr.obs.ObservePhase(p, d)
	}
}

// Duration returns the accumulated wall time of phase p.
func (pr *Profile) Duration(p Phase) time.Duration { return pr.durations[p] }

// Count returns how many times phase p completed.
func (pr *Profile) Count(p Phase) uint64 { return pr.counts[p] }

// Total returns the sum of all phase durations.
func (pr *Profile) Total() time.Duration {
	var t time.Duration
	for _, d := range pr.durations {
		t += d
	}
	return t
}

// UpdateTrainers returns the combined duration of the "update all trainers"
// stage: mini-batch sampling + target-Q + Q-loss/P-loss (+ layout reorg
// when enabled).
func (pr *Profile) UpdateTrainers() time.Duration {
	return pr.durations[PhaseSampling] + pr.durations[PhaseTargetQ] +
		pr.durations[PhaseQPLoss] + pr.durations[PhaseLayoutReorg]
}

// Interaction returns the combined duration of the environment-interaction
// stage: action selection + env step + replay add.
func (pr *Profile) Interaction() time.Duration {
	return pr.durations[PhaseActionSelection] + pr.durations[PhaseEnvStep] +
		pr.durations[PhaseReplayAdd]
}

// Percent returns phase p's share of the total in [0, 100].
func (pr *Profile) Percent(p Phase) float64 {
	total := pr.Total()
	if total == 0 {
		return 0
	}
	return 100 * float64(pr.durations[p]) / float64(total)
}

// PercentOfUpdate returns phase p's share of the update-all-trainers stage.
func (pr *Profile) PercentOfUpdate(p Phase) float64 {
	upd := pr.UpdateTrainers()
	if upd == 0 {
		return 0
	}
	return 100 * float64(pr.durations[p]) / float64(upd)
}

// Reset clears all accumulated data in place, keeping the allocated events
// map (consistent with DrainInto, which reuses it) and the attached
// observer.
func (pr *Profile) Reset() {
	for i := range pr.durations {
		pr.durations[i] = 0
		pr.counts[i] = 0
	}
	for name := range pr.events {
		delete(pr.events, name)
	}
}

// Merge accumulates other's durations, counts and events into pr. Merged
// data is an aggregation of already-observed measurements, so pr's observer
// is not re-notified.
func (pr *Profile) Merge(other *Profile) {
	for i := range pr.durations {
		pr.durations[i] += other.durations[i]
		pr.counts[i] += other.counts[i]
	}
	if pr.events == nil && len(other.events) > 0 {
		pr.events = make(map[string]uint64, len(other.events))
	}
	for name, n := range other.events {
		pr.events[name] += n
	}
}

// DrainInto merges pr into dst and resets pr, keeping pr's allocated event
// map for reuse. The parallel update engine gives each worker a private
// Profile shard (each shard is written by one worker only) and drains the
// shards into the main profile after the join barrier, in worker order, so
// phase totals are race-free and deterministic.
func (pr *Profile) DrainInto(dst *Profile) {
	dst.Merge(pr)
	pr.Reset()
}

// Report renders a human-readable per-phase table.
func (pr *Profile) Report() string {
	var b strings.Builder
	total := pr.Total()
	fmt.Fprintf(&b, "%-22s %12s %8s %8s\n", "phase", "time", "calls", "share")
	for _, p := range Phases() {
		if pr.counts[p] == 0 && pr.durations[p] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-22s %12v %8d %7.1f%%\n", p, pr.durations[p].Round(time.Microsecond), pr.counts[p], pr.Percent(p))
	}
	fmt.Fprintf(&b, "%-22s %12v\n", "total", total.Round(time.Microsecond))
	fmt.Fprintf(&b, "%-22s %12v (%.1f%% of total)\n", "update-all-trainers", pr.UpdateTrainers().Round(time.Microsecond),
		percentOf(pr.UpdateTrainers(), total))
	if len(pr.events) > 0 {
		fmt.Fprintf(&b, "%-22s %12s\n", "event", "count")
		for _, name := range pr.Events() {
			fmt.Fprintf(&b, "%-22s %12d\n", name, pr.events[name])
		}
	}
	return b.String()
}

// phaseJSON is one row of the machine-readable profile.
type phaseJSON struct {
	Phase          string  `json:"phase"`
	Nanos          int64   `json:"nanos"`
	Calls          uint64  `json:"calls"`
	PercentOfTotal float64 `json:"percent_of_total"`
}

// MarshalJSON renders the profile as a machine-readable document: every
// phase with accumulated time or calls, the derived update-all-trainers and
// interaction stage totals with their shares of total time, and the event
// counters. Shape is stable for downstream tooling (the run blocks of
// marl-bench -format json, the /profilez endpoint).
func (pr *Profile) MarshalJSON() ([]byte, error) {
	out := struct {
		Phases              []phaseJSON       `json:"phases"`
		TotalNanos          int64             `json:"total_nanos"`
		UpdateTrainersNanos int64             `json:"update_all_trainers_nanos"`
		InteractionNanos    int64             `json:"interaction_nanos"`
		UpdateSharePct      float64           `json:"update_share_percent"`
		InteractionSharePct float64           `json:"interaction_share_percent"`
		Events              map[string]uint64 `json:"events,omitempty"`
	}{
		Phases:              make([]phaseJSON, 0, numPhases),
		TotalNanos:          pr.Total().Nanoseconds(),
		UpdateTrainersNanos: pr.UpdateTrainers().Nanoseconds(),
		InteractionNanos:    pr.Interaction().Nanoseconds(),
		UpdateSharePct:      percentOf(pr.UpdateTrainers(), pr.Total()),
		InteractionSharePct: percentOf(pr.Interaction(), pr.Total()),
	}
	for _, p := range Phases() {
		if pr.counts[p] == 0 && pr.durations[p] == 0 {
			continue
		}
		out.Phases = append(out.Phases, phaseJSON{
			Phase:          p.String(),
			Nanos:          pr.durations[p].Nanoseconds(),
			Calls:          pr.counts[p],
			PercentOfTotal: pr.Percent(p),
		})
	}
	if len(pr.events) > 0 {
		out.Events = pr.events
	}
	return json.Marshal(&out)
}

func percentOf(part, whole time.Duration) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
