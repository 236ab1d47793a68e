package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"marlperf/internal/expstore"
	"marlperf/internal/mpe"
	"marlperf/internal/replay"
	"marlperf/internal/resilience"
)

// takeSnapshot is what a store holds after saving tr: its sections,
// written out and decoded, so that the snapshot owns its bytes and outlives
// the trainer's next checkpoint.
func takeSnapshot(t *testing.T, tr *Trainer) *resilience.Snapshot {
	t.Helper()
	sections, err := tr.SnapshotSections()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := resilience.WriteSnapshot(&buf, sections); err != nil {
		t.Fatal(err)
	}
	snap, err := resilience.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// section returns snap's payload of kind, failing t when there is none.
func section(t *testing.T, snap *resilience.Snapshot, kind resilience.SectionKind) []byte {
	t.Helper()
	payload, ok := snap.Section(kind)
	if !ok {
		t.Fatalf("snapshot has no %v section", kind)
	}
	return payload
}

func TestRestoreExperienceRefillsBufferAndSamplers(t *testing.T) {
	tr := trainedTrainer(t, MADDPG)

	// Restore into a fresh trainer with a prioritized sampler: Add must fire
	// the listeners registered at NewTrainer time so the priority tree covers
	// the restored experience.
	cfg := smallConfig(MADDPG)
	cfg.Sampler = SamplerPER
	fresh, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreSnapshot(takeSnapshot(t, tr)); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.Buffer().Len(), tr.Buffer().Len(); got != want {
		t.Fatalf("restored buffer holds %d transitions, want %d", got, want)
	}
	// The PER sampler must be able to draw a batch from the restored
	// experience (panics if its tree is empty).
	fresh.UpdateAllTrainers()
}

// A replay section of another shape is refused before anything is
// installed: the trainer keeps its weights, counters and rows.
func TestRestoreExperienceRejectsShapeMismatch(t *testing.T) {
	tr := trainedTrainer(t, MADDPG)
	other, err := NewTrainer(smallConfig(MADDPG), mpe.NewCooperativeNavigation(3))
	if err != nil {
		t.Fatal(err)
	}
	other.Warmup(5)
	fresh, err := NewTrainer(smallConfig(MADDPG), mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	before := trainerStateBytes(t, fresh)
	mixed := &resilience.Snapshot{Sections: []resilience.Section{
		{Kind: resilience.SectionTrainer, Payload: section(t, takeSnapshot(t, tr), resilience.SectionTrainer)},
		{Kind: resilience.SectionReplay, Payload: section(t, takeSnapshot(t, other), resilience.SectionReplay)},
	}}
	if err := fresh.RestoreSnapshot(mixed); err == nil || !strings.Contains(err.Error(), "restored buffer") || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("mismatched buffer shape: %v", err)
	}
	if !bytes.Equal(trainerStateBytes(t, fresh), before) || fresh.Buffer().Len() != 0 {
		t.Fatal("a refused snapshot changed the trainer")
	}
}

// A restored run's streams are a pure function of the run seed and the
// restored step count: one generation restored twice trains the same bytes
// on, and two generations continue on different streams.
func TestRestoreSnapshotContinuesDeterministically(t *testing.T) {
	tr, err := NewTrainer(smallConfig(MADDPG), mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	tr.RunEpisodes(2, nil)
	early := takeSnapshot(t, tr)
	tr.RunEpisodes(2, nil)
	late := takeSnapshot(t, tr)

	resume := func(snap *resilience.Snapshot) *Trainer {
		t.Helper()
		r, err := NewTrainer(smallConfig(MADDPG), mpe.NewCooperativeNavigation(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		return r
	}
	continued := func(snap *resilience.Snapshot) ([]byte, []float64) {
		t.Helper()
		r := resume(snap)
		updates := r.UpdateCount()
		var rewards []float64
		r.RunEpisodes(2, func(_ int, reward float64) { rewards = append(rewards, reward) })
		if r.UpdateCount() == updates {
			t.Fatal("the resumed run never updated")
		}
		return trainerStateBytes(t, r), rewards
	}
	ckptA, rewA := continued(early)
	ckptB, rewB := continued(early)
	if !bytes.Equal(ckptA, ckptB) || len(rewA) != 2 || rewA[0] != rewB[0] || rewA[1] != rewB[1] {
		t.Fatal("one generation restored twice trained on to different bytes")
	}

	a, b := resume(early), resume(late)
	ref, err := NewTrainer(smallConfig(MADDPG), mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	ref.ReseedRNG(resumeSeed(smallConfig(MADDPG).Seed, a.TotalSteps()))
	if a.rng.Int63() != ref.rng.Int63() || a.agentRNGs[1].Int63() != ref.agentRNGs[1].Int63() {
		t.Fatal("the restored streams are not the ones the seed and step count derive")
	}
	if a.TotalSteps() == b.TotalSteps() || a.rng.Int63() == b.rng.Int63() {
		t.Fatal("two generations continue on the same stream")
	}
}

// Sections of kinds the restore does not know, such as the run-state
// section older snapshots carry, change nothing.
func TestRestoreSnapshotSkipsUnknownSections(t *testing.T) {
	tr := trainedTrainer(t, MADDPG)
	snap := takeSnapshot(t, tr)
	withOld := &resilience.Snapshot{Sections: append([]resilience.Section{
		{Kind: resilience.SectionKind(3), Payload: []byte("an old run-state section")},
		{Kind: resilience.SectionKind(99), Payload: []byte("later")},
	}, snap.Sections...)}
	restored := func(snap *resilience.Snapshot) *Trainer {
		t.Helper()
		r, err := NewTrainer(smallConfig(MADDPG), mpe.NewCooperativeNavigation(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := restored(snap), restored(withOld)
	if !bytes.Equal(trainerStateBytes(t, a), trainerStateBytes(t, b)) ||
		a.Buffer().Len() != b.Buffer().Len() || a.rng.Int63() != b.rng.Int63() {
		t.Fatal("an unknown section changed the restore")
	}

	if err := a.RestoreSnapshot(&resilience.Snapshot{Sections: snap.Sections[1:]}); err == nil ||
		!strings.Contains(err.Error(), "no trainer section") {
		t.Fatalf("a snapshot without a trainer section: %v", err)
	}
}

// A trainer drawing from an experience source snapshots no rows, and
// refuses a snapshot holding rows rather than drop them.
func TestRestoreSnapshotRefusesRowsOnSourcedTrainer(t *testing.T) {
	cfg := expConfig(SamplerUniform)
	env := mpe.NewCooperativeNavigation(2)
	sourced := func() *Trainer {
		t.Helper()
		src, err := expstore.NewSource(expstore.NewRing(expSpec(cfg, env)), replay.SamplePlan{Strategy: replay.PlanUniform})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTrainer(cfg, env)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		if err := tr.SetExperienceService(src, src); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	remote := sourced()
	remote.RunEpisodes(2, nil)
	snap := takeSnapshot(t, remote)
	if _, ok := snap.Section(resilience.SectionReplay); ok || len(snap.Sections) != 1 {
		t.Fatalf("a sourced trainer's snapshot holds %d sections, want its trainer section only", len(snap.Sections))
	}
	if err := sourced().RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	local, err := NewTrainer(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	local.RunEpisodes(2, nil)
	if err := sourced().RestoreSnapshot(takeSnapshot(t, local)); err == nil || !strings.Contains(err.Error(), "replay rows") {
		t.Fatalf("rows restored into a sourced trainer: %v", err)
	}
}

// allocatedBy returns the bytes f allocates on the heap.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotCopiesNoCheckpoint: neither side of a snapshot copies the
// checkpoint. On predator-prey with six agents (a 4.6 MB checkpoint), a
// warm save allocates no more than the replay section it encodes, because
// the checkpoint section is the trainer's own reused buffer; and a restore
// allocates about one checkpoint — the networks and optimizer moments it
// decodes — because the section is decoded where it lies, not first copied
// off a reader.
func TestSnapshotCopiesNoCheckpoint(t *testing.T) {
	cfg := DefaultConfig(MADDPG)
	cfg.BufferCapacity = 1024
	tr, err := NewTrainer(cfg, mpe.NewPredatorPrey(6))
	if err != nil {
		t.Fatal(err)
	}
	tr.Warmup(100)
	if _, err := tr.SnapshotSections(); err != nil { // sizes the checkpoint buffer
		t.Fatal(err)
	}
	var sections []resilience.Section
	saved := allocatedBy(func() { sections, err = tr.SnapshotSections() })
	if err != nil {
		t.Fatal(err)
	}
	// The replay section is the save's one allocation; under the race
	// detector slices.Grow allocates it twice, the second time as a
	// temporary. Either way it is far below the checkpoint a copy would add.
	ckpt, rows := len(sections[0].Payload), len(sections[1].Payload)
	if budget := 2*uint64(rows) + 64<<10; saved > budget {
		t.Errorf("a warm save allocated %d bytes, want at most twice the %d-byte replay section and 64 KiB (checkpoint %d bytes)", saved, rows, ckpt)
	}

	snap := takeSnapshot(t, tr)
	fresh, err := NewTrainer(cfg, mpe.NewPredatorPrey(6))
	if err != nil {
		t.Fatal(err)
	}
	restored := allocatedBy(func() { err = fresh.RestoreSnapshot(snap) })
	if err != nil {
		t.Fatal(err)
	}
	if budget := uint64(ckpt) * 3 / 2; restored > budget {
		t.Errorf("a restore allocated %d bytes, want at most 1.5 checkpoints (%d bytes)", restored, budget)
	}
	t.Logf("checkpoint %d bytes, replay section %d bytes; warm save allocated %d, restore %d", ckpt, rows, saved, restored)
}
