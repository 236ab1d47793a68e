package resilience_test

// Kill-and-restart integration test: trains a real MADDPG trainer, writes
// snapshot generations through the resilience store, leaves the truncated
// temp file of a checkpoint write killed mid-stream, bit-flips the newest
// durable generation, and proves a "restarted process" resumes from the
// newest intact generation with counters, experience and health preserved.

import (
	"bytes"
	"path/filepath"
	"testing"

	"marlperf/internal/core"
	"marlperf/internal/faultnet"
	"marlperf/internal/mpe"
	"marlperf/internal/resilience"
)

func integrationConfig() core.Config {
	cfg := core.DefaultConfig(core.MADDPG)
	cfg.BatchSize = 32
	cfg.BufferCapacity = 512
	cfg.UpdateEvery = 20
	cfg.HiddenSize = 16
	cfg.Sampler = core.SamplerPER
	cfg.Seed = 11
	return cfg
}

type runProgress struct {
	episodes, steps, updates, buffered int
}

func progressOf(tr *core.Trainer) runProgress {
	return runProgress{
		episodes: tr.EpisodeCount(),
		steps:    tr.TotalSteps(),
		updates:  tr.UpdateCount(),
		buffered: tr.Buffer().Len(),
	}
}

// snapshotTrainer takes the snapshot cmd/marl-train saves.
func snapshotTrainer(t *testing.T, tr *core.Trainer) []resilience.Section {
	t.Helper()
	sections, err := tr.SnapshotSections()
	if err != nil {
		t.Fatal(err)
	}
	return sections
}

// restoreTrainer plays the part of a freshly restarted process: a brand-new
// trainer restored from a snapshot.
func restoreTrainer(t *testing.T, snap *resilience.Snapshot) *core.Trainer {
	t.Helper()
	tr, err := core.NewTrainer(integrationConfig(), mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestKillAndRestartResumesFromIntactGeneration(t *testing.T) {
	dir := t.TempDir()
	store, err := resilience.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTrainer(integrationConfig(), mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}

	// Train with periodic snapshots, recording the progress counters frozen
	// into each generation.
	saved := map[uint64]runProgress{}
	for i := 0; i < 3; i++ {
		tr.RunEpisodes(2, nil)
		seq := uint64(tr.EpisodeCount())
		saved[seq] = progressOf(tr)
		if _, err := store.Save(seq, snapshotTrainer(t, tr)); err != nil {
			t.Fatalf("saving generation %d: %v", seq, err)
		}
	}

	// The process dies mid-write of generation 8: it leaves a truncated
	// temp file behind and publishes no new generation.
	tr.RunEpisodes(2, nil)
	var partial bytes.Buffer
	if err := resilience.WriteSnapshot(&partial, snapshotTrainer(t, tr)); err != nil {
		t.Fatal(err)
	}
	resilience.LeaveTemp(t, store.Path(uint64(tr.EpisodeCount())), partial.Bytes()[:16])
	gens, err := store.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 || gens[len(gens)-1] != 6 {
		t.Fatalf("generations after crash = %v, want [2 4 6]", gens)
	}

	// Bit rot hits the newest durable generation while the process is down.
	if err := faultnet.FlipBitInFile(store.Path(6), 120, 0x40); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new store over the same directory clears the crash's
	// stray temp file, and recovery falls back past the damaged newest
	// generation to the intact one before it.
	store2, err := resilience.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap, seq, skipped, err := store2.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("recovered generation %d, want 4", seq)
	}
	if len(skipped) != 1 || skipped[0].Seq != 6 {
		t.Fatalf("skipped = %v, want exactly generation 6", skipped)
	}
	if temps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(temps) != 0 {
		t.Fatalf("the crash's temp file survived the restart: %v", temps)
	}

	restored := restoreTrainer(t, snap)
	want := saved[4]
	if got := progressOf(restored); got != want {
		t.Fatalf("restored progress %+v, want %+v", got, want)
	}
	if err := restored.Healthy(); err != nil {
		t.Fatalf("restored trainer unhealthy: %v", err)
	}

	// The resumed run trains on and its next snapshot supersedes the rot.
	restored.RunEpisodes(2, nil)
	if restored.EpisodeCount() != 6 || restored.UpdateCount() <= want.updates {
		t.Fatalf("resumed run did not progress: %d episodes, %d updates",
			restored.EpisodeCount(), restored.UpdateCount())
	}
	if _, err := store2.Save(uint64(restored.EpisodeCount()), snapshotTrainer(t, restored)); err != nil {
		t.Fatal(err)
	}
	snap2, seq2, _, err := store2.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != 6 {
		t.Fatalf("newest generation %d after re-save, want 6", seq2)
	}
	again := restoreTrainer(t, snap2)
	if got, want := progressOf(again), progressOf(restored); got != want {
		t.Fatalf("second restore progress %+v, want %+v", got, want)
	}
}
