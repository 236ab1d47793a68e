package core

import (
	"time"

	"marlperf/internal/profiler"
	"marlperf/internal/trace"
)

// UpdateEvent is the run-event record emitted once per completed
// update-all-trainers stage. Field tags define the JSONL schema of the
// run log (-runlog); keep them stable for downstream tooling.
type UpdateEvent struct {
	// TimeUnixNano is the wall-clock emission time.
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Step is the total environment steps taken so far.
	Step int `json:"step"`
	// Update is the 1-based index of this update stage.
	Update int `json:"update"`
	// Episode is the number of completed episodes.
	Episode int `json:"episode"`
	// EpisodeReward is the mean-over-agents summed reward of the most
	// recently completed episode (0 until the first episode completes).
	EpisodeReward float64 `json:"episode_reward"`
	// TDMean is the mean |TD error| of this update's critic step — the
	// training-loss signal the divergence watchdog also monitors.
	TDMean float64 `json:"td_mean"`
	// PhaseMicros is the per-phase wall time accumulated since the
	// previous event, in microseconds; phases with no new time are
	// omitted (sub-microsecond deltas appear as 0). Summed across events
	// this reproduces the profiler totals to microsecond rounding.
	PhaseMicros map[string]int64 `json:"phase_micros"`
	// Sampler is the active sampling strategy's report name.
	Sampler string `json:"sampler"`
	// Workers is the resolved update worker-pool size.
	Workers int `json:"workers"`
}

// SetPhaseObserver mirrors every profiler phase observation and event —
// from the main profile and from every per-worker shard, present and
// future — to o. Because worker shards observe concurrently during the
// update stage, o must be safe for concurrent use (telemetry's
// PhaseCollector is). Call before training; a nil o detaches.
func (t *Trainer) SetPhaseObserver(o profiler.Observer) {
	t.phaseObs = o
	t.prof.SetObserver(o)
	for _, s := range t.scratch {
		s.prof.SetObserver(o)
	}
}

// SetUpdateListener registers fn to receive one UpdateEvent per completed
// update-all-trainers stage, invoked synchronously from the training
// goroutine at the end of UpdateAllTrainers. The per-phase deltas start
// from the profile's state at registration time. A nil fn detaches.
func (t *Trainer) SetUpdateListener(fn func(UpdateEvent)) {
	t.updateListener = fn
	if fn == nil {
		return
	}
	if t.prevPhaseDur == nil {
		t.prevPhaseDur = make([]time.Duration, profiler.NumPhases())
	}
	for _, p := range profiler.Phases() {
		t.prevPhaseDur[int(p)] = t.prof.Duration(p)
	}
}

// SetTracer attaches a span tracer to the update stage. Each sampled
// update opens a root span whose trace ID derives deterministically from
// (Config.Seed, update index) and publishes it as the tracer's active
// context, which the experience client and policy publisher pick up to
// stitch the cross-process critical path. A nil tracer (the default)
// keeps every instrumentation point on its zero-allocation disabled
// path. Call before training.
func (t *Trainer) SetTracer(tr *trace.Tracer) { t.tracer = tr }

// buildUpdateEvent snapshots the run state and the per-phase wall time
// accumulated since the previous event.
func (t *Trainer) buildUpdateEvent() UpdateEvent {
	ev := UpdateEvent{
		TimeUnixNano:  time.Now().UnixNano(),
		Step:          t.totalSteps,
		Update:        t.updateCount,
		Episode:       t.episodeCount,
		EpisodeReward: t.lastEpReward,
		TDMean:        t.lastTDMean,
		PhaseMicros:   make(map[string]int64, profiler.NumPhases()),
		Sampler:       t.cfg.Sampler.String(),
		Workers:       t.updateWorkers,
	}
	for _, p := range profiler.Phases() {
		d := t.prof.Duration(p)
		if delta := d - t.prevPhaseDur[int(p)]; delta > 0 {
			ev.PhaseMicros[p.String()] = delta.Microseconds()
		}
		t.prevPhaseDur[int(p)] = d
	}
	return ev
}
