package core

import (
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
// no experience source is attached, its replay rows as one MARB section,
// which both layouts write alike. A trainer drawing from a source keeps no
// rows; they live in the source. It reads no RNG, so a run that saves
// trains the same bytes as one that does not.
//
// The checkpoint section's payload is the trainer's own checkpoint buffer,
// not a copy: it stays valid until the trainer next encodes a checkpoint
// (SaveCheckpoint, SnapshotSections, a Watchdog capture). Write the
// sections out before then, as resilience.Store.Save does.
func (t *Trainer) SnapshotSections() ([]resilience.Section, error) {
	ckpt, err := t.encodeCheckpoint()
	if err != nil {
		return nil, err
	}
	sections := []resilience.Section{{Kind: resilience.SectionTrainer, Payload: ckpt}}
	if t.expSource == nil {
		sections = append(sections, resilience.Section{Kind: resilience.SectionReplay, Payload: replay.AppendSection(nil, t.store)})
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
//
// The replay rows are decoded straight from the section into the trainer's
// store, oldest first, through its Add: the listeners registered at
// NewTrainer time stay attached and re-derive their state (priority trees),
// and no second buffer is built.
func (t *Trainer) RestoreSnapshot(snap *resilience.Snapshot) error {
	ckpt, ok := snap.Section(resilience.SectionTrainer)
	if !ok {
		return errors.New("core: snapshot has no trainer section")
	}
	payload, hasRows := snap.Section(resilience.SectionReplay)
	var rows replay.Section
	if hasRows {
		if t.expSource != nil {
			return errors.New("core: snapshot holds replay rows, and a trainer on an experience source keeps none")
		}
		var err error
		if rows, err = replay.ReadSection(payload, t.store.Spec()); err != nil {
			return fmt.Errorf("core: restored buffer: %w", err)
		}
	}
	if err := t.loadCheckpointBytes(ckpt); err != nil {
		return err
	}
	if hasRows {
		rows.AddTo(t.store)
	}
	t.ReseedRNG(resumeSeed(t.cfg.Seed, t.totalSteps))
	return nil
}
