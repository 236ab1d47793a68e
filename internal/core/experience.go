package core

import (
	"fmt"

	"marlperf/internal/replay"
)

// SamplePlan maps the configured sampler to the pure-data plan a fabric
// draw runs on the learner before the shards gather — the plan the
// in-process sampler of the same name runs, so the two are bit-identical
// over the same rows. Only strategies whose index selection is a pure
// function of (length, seed) are serviceable — the prioritized samplers
// carry client-side mutable state (sum trees) that cannot be replayed
// remotely.
func (c Config) SamplePlan() (replay.SamplePlan, error) {
	switch c.Sampler {
	case SamplerUniform:
		return replay.SamplePlan{Strategy: replay.PlanUniform}, nil
	case SamplerLocality:
		return replay.SamplePlan{Strategy: replay.PlanLocality, Neighbors: c.Neighbors, Refs: c.Refs}, nil
	default:
		return replay.SamplePlan{}, fmt.Errorf("core: sampler %v is not expressible as a sample plan (stateless strategies only)", c.Sampler)
	}
}

// SetExperienceService rewires where the trainer's experience lives:
//
//   - source, when non-nil, replaces the in-process sampler and its
//     buffer for the update stage — every mini-batch is drawn through it
//     with one seed per batch from the requesting agent's RNG stream, and
//     the local buffer stays empty. The source may be local
//     (expstore.Source) or remote (expserve.ShardedSource); because index
//     selection is a pure function of (plan, length, seed), the two produce
//     bit-identical training for the same collected rows.
//   - sink, when non-nil, receives every collected transition in
//     collection order; it is flushed before each update-gate check so
//     source.Len reflects everything this process collected.
//
// Must be called before training starts. The configured sampler must be
// plan-expressible (see Config.SamplePlan) when a source is set; a source
// retaining the rows the in-process buffer would then trains bit-identical
// to the in-process sampler of the same name.
func (t *Trainer) SetExperienceService(source replay.TransitionSource, sink replay.TransitionSink) error {
	if t.totalSteps > 0 || t.updateCount > 0 {
		return fmt.Errorf("core: SetExperienceService after training started")
	}
	if source != nil {
		if _, err := t.cfg.SamplePlan(); err != nil {
			return err
		}
	}
	t.expSource = source
	t.expSink = sink
	return nil
}

// FlushExperience publishes any transitions still buffered in the
// experience sink. The update gate flushes on its own cadence during
// training; call this at end of run so the service holds every row this
// process collected (the zero-experience-loss accounting the chaos smoke
// checks). No-op without a sink.
func (t *Trainer) FlushExperience() error {
	if t.expSink == nil {
		return nil
	}
	return t.expSink.Flush()
}

// ExperienceErr returns the first error recorded by the experience service
// paths (remote sampling or publishing) and clears it.
func (t *Trainer) ExperienceErr() error {
	t.expErrMu.Lock()
	defer t.expErrMu.Unlock()
	err := t.expErr
	t.expErr = nil
	return err
}

// setExpErr records the first experience-service error; later ones are
// dropped (the first failure is the actionable one, and training stops at
// the next step boundary anyway).
func (t *Trainer) setExpErr(err error) {
	t.expErrMu.Lock()
	if t.expErr == nil {
		t.expErr = err
	}
	t.expErrMu.Unlock()
}

// updateReady reports whether the update gate passes: the sampleable
// experience (service-side when a source is wired, the local buffer
// otherwise) has reached the warmup size. With a sink attached, everything
// collected so far is flushed first, so a synchronous service counts this
// process's rows exactly — the property that keeps local and remote update
// cadence identical.
func (t *Trainer) updateReady() (bool, error) {
	if t.expSource == nil {
		return t.store.Len() >= t.cfg.WarmupSize, nil
	}
	if t.expSink != nil {
		if err := t.expSink.Flush(); err != nil {
			return false, err
		}
	}
	n, err := t.expSource.Len()
	if err != nil {
		return false, err
	}
	return n >= t.cfg.WarmupSize, nil
}
