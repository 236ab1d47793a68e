package core

import (
	"bytes"
	"errors"
	"fmt"

	"marlperf/internal/replay"
	"marlperf/internal/resilience"
)

// A snapshot is a run's resumable state as resilience sections: the MARL
// checkpoint, and the MARB replay buffer when the trainer samples its own
// buffer. The RNG streams are not stored. A restore reseeds them from the
// run seed and the restored step count, so every save point has its own
// deterministic future and saving draws nothing from the run.

// resumeStreamPrime spaces the streams a restore derives per step count.
const resumeStreamPrime = 998_244_353

// resumeSeed is the stream seed of a run restored at steps env steps.
// Distinct step counts give distinct seeds.
func resumeSeed(seed int64, steps int) int64 {
	return seed ^ int64(steps+1)*resumeStreamPrime
}

// SnapshotSections returns the trainer's snapshot: its checkpoint and, when
// no experience source is attached, its replay buffer. A trainer drawing
// from a source keeps no rows; they live in the source. It reads no RNG, so
// a run that saves trains the same bytes as one that does not.
func (t *Trainer) SnapshotSections() ([]resilience.Section, error) {
	var ckpt bytes.Buffer
	if err := t.SaveCheckpoint(&ckpt); err != nil {
		return nil, err
	}
	sections := []resilience.Section{{Kind: resilience.SectionTrainer, Payload: ckpt.Bytes()}}
	if t.expSource == nil {
		var rows bytes.Buffer
		if _, err := t.buf.WriteTo(&rows); err != nil {
			return nil, err
		}
		sections = append(sections, resilience.Section{Kind: resilience.SectionReplay, Payload: rows.Bytes()})
	}
	return sections, nil
}

// RestoreSnapshot installs a snapshot written by SnapshotSections into a
// trainer built with the same configuration, then reseeds its streams with
// resumeSeed. Section kinds it does not know are skipped, among them the
// run-state section (kind 3) older snapshots carry. A trainer with an
// experience source refuses a snapshot holding replay rows rather than drop
// them. Every section is decoded and checked before any is installed, so a
// refused snapshot leaves the trainer untouched.
func (t *Trainer) RestoreSnapshot(snap *resilience.Snapshot) error {
	ckpt, ok := snap.Section(resilience.SectionTrainer)
	if !ok {
		return errors.New("core: snapshot has no trainer section")
	}
	var rows *replay.Buffer
	if payload, ok := snap.Section(resilience.SectionReplay); ok {
		if t.expSource != nil {
			return errors.New("core: snapshot holds replay rows, and a trainer on an experience source keeps none")
		}
		var err error
		if rows, err = replay.ReadBuffer(bytes.NewReader(payload)); err != nil {
			return fmt.Errorf("core: snapshot replay section: %w", err)
		}
		if err := t.rowsFit(rows.Spec()); err != nil {
			return err
		}
	}
	if err := t.LoadCheckpoint(bytes.NewReader(ckpt)); err != nil {
		return err
	}
	if rows != nil {
		t.restoreExperience(rows)
	}
	t.ReseedRNG(resumeSeed(t.cfg.Seed, t.totalSteps))
	return nil
}

// rowsFit reports whether rows of spec's shape fit the trainer's buffer.
func (t *Trainer) rowsFit(spec replay.Spec) error {
	want := t.buf.Spec()
	if spec.NumAgents != want.NumAgents || spec.ActDim != want.ActDim {
		return fmt.Errorf("core: restored buffer shape %d agents × act %d, trainer wants %d × %d",
			spec.NumAgents, spec.ActDim, want.NumAgents, want.ActDim)
	}
	for a, od := range want.ObsDims {
		if spec.ObsDims[a] != od {
			return fmt.Errorf("core: restored buffer agent %d obs dim %d, trainer wants %d",
				a, spec.ObsDims[a], od)
		}
	}
	return nil
}

// restoreExperience replays every transition stored in src (oldest first),
// which rowsFit has accepted, through the trainer's live replay path.
// Re-Adding, instead of swapping the buffer pointer, keeps the sampler
// listeners registered at NewTrainer time attached, re-derives their state
// (priority trees, episode runs) and rebuilds the optional key-value table
// alongside.
func (t *Trainer) restoreExperience(src *replay.Buffer) {
	spec := t.buf.Spec()
	obs := make([][]float64, t.n)
	act := make([][]float64, t.n)
	nextObs := make([][]float64, t.n)
	rew := make([]float64, t.n)
	done := make([]float64, t.n)
	for a := 0; a < t.n; a++ {
		obs[a] = make([]float64, spec.ObsDims[a])
		nextObs[a] = make([]float64, spec.ObsDims[a])
		act[a] = make([]float64, spec.ActDim)
	}
	for _, idx := range src.InsertionOrder() {
		src.CopyTransition(idx, obs, act, rew, nextObs, done)
		t.buf.Add(obs, act, rew, nextObs, done)
		if t.kv != nil {
			t.kv.Add(obs, act, rew, nextObs, done)
		}
	}
}
