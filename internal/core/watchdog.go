package core

import (
	"bytes"
	"fmt"
	"math"

	"marlperf/internal/profiler"
)

// Healthy reports nil when the trainer's numerical state is finite: the
// most recent mean |TD error| and every parameter of every network. A NaN
// or Inf anywhere means the run is training on poisoned weights and every
// further update is wasted — the watchdog rolls back instead.
func (t *Trainer) Healthy() error {
	if t.updateCount > 0 && !isFinite(t.lastTDMean) {
		return fmt.Errorf("core: mean |TD error| is %v after update %d", t.lastTDMean, t.updateCount)
	}
	for i, ag := range t.agents {
		for _, n := range ag.networks() {
			for pi, p := range n.net.Params() {
				for _, v := range p.Data {
					if !isFinite(v) {
						return fmt.Errorf("core: agent %d %s param %d contains %v", i, n.name, pi, v)
					}
				}
			}
		}
	}
	return nil
}

// LastTDMean returns the mean |TD error| of the most recent critic update.
func (t *Trainer) LastTDMean() float64 { return t.lastTDMean }

// ReseedRNG replaces the trainer's RNG stream and the derived per-agent
// update streams. The watchdog uses this after a rollback so a divergence
// caused by an unlucky noise draw is not replayed deterministically, and
// RestoreSnapshot to give a restored run its save point's own future.
func (t *Trainer) ReseedRNG(seed int64) {
	t.rng.Seed(seed)
	for i, rng := range t.agentRNGs {
		rng.Seed(agentStreamSeed(seed, i))
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func finiteSlice(vs []float64) bool {
	for _, v := range vs {
		if !isFinite(v) {
			return false
		}
	}
	return true
}

// maxRollbacks bounds recovery attempts: past it the watchdog reports an
// error instead of looping on a deterministic divergence.
const maxRollbacks = 8

// RecoveryEvent describes one watchdog intervention.
type RecoveryEvent struct {
	Reason  error // what Healthy found
	Episode int   // episode count restored by the rollback
}

// Watchdog guards a training run against numerical divergence. The caller
// invokes Observe at episode boundaries; the watchdog keeps an in-memory
// copy of the last known-good checkpoint, refreshed at every healthy
// observation, and, when the trainer goes non-finite, restores it —
// continuing from the last good weights instead of training on poison.
// Recoveries are counted through the trainer's profiler events.
type Watchdog struct {
	tr *Trainer

	good        []byte // serialized last-good checkpoint
	goodEpisode int

	rollbacks int
}

// NewWatchdog builds a watchdog over tr, capturing the current (healthy)
// state as the first rollback target.
func NewWatchdog(tr *Trainer) (*Watchdog, error) {
	if err := tr.Healthy(); err != nil {
		return nil, fmt.Errorf("core: watchdog started on unhealthy trainer: %w", err)
	}
	w := &Watchdog{tr: tr}
	if err := w.capture(); err != nil {
		return nil, err
	}
	return w, nil
}

// capture refreshes the in-memory rollback target from the live trainer,
// in the storage of the last one: a healthy episode copies one checkpoint
// and allocates none. SaveCheckpoint writes only once it has encoded
// everything, so a failed capture leaves the last target whole.
func (w *Watchdog) capture() error {
	buf := bytes.NewBuffer(w.good[:0])
	if err := w.tr.SaveCheckpoint(buf); err != nil {
		return fmt.Errorf("core: watchdog snapshot: %w", err)
	}
	w.good = buf.Bytes()
	w.goodEpisode = w.tr.episodeCount
	return nil
}

// Observe checks the trainer and recovers if it has diverged. It returns a
// non-nil RecoveryEvent when a rollback happened, and an error only when
// recovery itself is impossible (rollback budget exhausted, or the restore
// failed).
func (w *Watchdog) Observe() (*RecoveryEvent, error) {
	unhealthy := w.tr.Healthy()
	if unhealthy == nil {
		return nil, w.capture()
	}
	if w.rollbacks >= maxRollbacks {
		return nil, fmt.Errorf("core: watchdog exhausted %d rollbacks, run keeps diverging: %w",
			w.rollbacks, unhealthy)
	}
	if err := w.tr.loadCheckpointBytes(w.good); err != nil {
		return nil, fmt.Errorf("core: watchdog rollback failed: %w", err)
	}
	w.rollbacks++
	// Perturb the exploration stream so an unlucky noise draw is not
	// replayed into the same divergence.
	w.tr.ReseedRNG(w.tr.cfg.Seed + int64(w.rollbacks)*7919)
	w.tr.prof.Event(profiler.EventWatchdogRollback, 1)
	return &RecoveryEvent{Reason: unhealthy, Episode: w.goodEpisode}, nil
}
