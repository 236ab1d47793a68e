package core

import (
	"bytes"
	"runtime"
	"testing"

	"marlperf/internal/mpe"
	"marlperf/internal/resilience"
)

// storeBytes is what capacity rows of env's transitions take in one store,
// in either layout.
func storeBytes(env mpe.Env, capacity int) uint64 {
	n := 0
	for _, od := range env.ObsDims() {
		n += 2*od + env.NumActions() + 2
	}
	return uint64(8 * n * capacity)
}

// allocated returns how many bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A trainer holds one copy of its rows in either layout: NewTrainer
// allocates one store's worth, not a buffer and a key-value table.
func TestNewTrainerAllocatesOneStore(t *testing.T) {
	const capacity = 50_000
	env := mpe.NewPredatorPrey(3)
	rows := storeBytes(env, capacity)
	for _, kv := range []bool{false, true} {
		cfg := smallConfig(MADDPG)
		cfg.BufferCapacity, cfg.UseKVLayout = capacity, kv
		var tr *Trainer
		var err error
		got := allocated(func() { tr, err = NewTrainer(cfg, env) })
		if err != nil {
			t.Fatal(err)
		}
		tr.Close()
		if got < rows || got > rows+rows/4 {
			t.Errorf("kv=%v: NewTrainer allocated %d B for %d B of rows, want one store's worth", kv, got, rows)
		}
	}
}

// A restore decodes the replay section straight into the trainer's store:
// restoring a full, wrapped buffer allocates nothing near a second one.
func TestRestoreSnapshotAllocatesNoSecondStore(t *testing.T) {
	const capacity = 20_000
	env := mpe.NewCooperativeNavigation(2)
	rows := storeBytes(env, capacity)
	for _, kv := range []bool{false, true} {
		cfg := smallConfig(MADDPG)
		cfg.BufferCapacity, cfg.UseKVLayout = capacity, kv
		src, err := NewTrainer(cfg, env)
		if err != nil {
			t.Fatal(err)
		}
		src.Warmup(capacity + 100)
		snap := takeSnapshot(t, src)
		dst, err := NewTrainer(cfg, env)
		if err != nil {
			t.Fatal(err)
		}
		got := allocated(func() { err = dst.RestoreSnapshot(snap) })
		if err != nil {
			t.Fatal(err)
		}
		if dst.Store().Len() != capacity {
			t.Fatalf("kv=%v: restored %d rows, want %d", kv, dst.Store().Len(), capacity)
		}
		if got > rows/8 {
			t.Errorf("kv=%v: RestoreSnapshot allocated %d B restoring %d B of rows, want no second store", kv, got, rows)
		}
	}
}

// Both layouts write one replay section for the same run, byte for byte,
// under every sampler and past the ring wrap; a snapshot of either restores
// into the other, and the two go on to train the same bytes.
func TestSnapshotSameAcrossLayouts(t *testing.T) {
	for _, s := range []SamplerKind{SamplerUniform, SamplerLocality, SamplerPER, SamplerIPLocality} {
		config := func(kv bool) Config {
			cfg := smallConfig(MADDPG)
			cfg.Sampler, cfg.UseKVLayout = s, kv
			return cfg
		}
		trainer := func(kv bool) *Trainer {
			t.Helper()
			tr, err := NewTrainer(config(kv), mpe.NewCooperativeNavigation(2))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(tr.Close)
			return tr
		}
		plain, kv := trainer(false), trainer(true)
		for _, tr := range []*Trainer{plain, kv} {
			for tr.TotalSteps() <= tr.Config().BufferCapacity+tr.Config().MaxEpisodeLen {
				tr.Step()
			}
		}
		fromPlain, fromKV := takeSnapshot(t, plain), takeSnapshot(t, kv)
		for _, kind := range []resilience.SectionKind{resilience.SectionTrainer, resilience.SectionReplay} {
			if !bytes.Equal(section(t, fromPlain, kind), section(t, fromKV, kind)) {
				t.Fatalf("%v: the layouts write different %v sections", s, kind)
			}
		}

		intoKV, intoPlain := trainer(true), trainer(false)
		if err := intoKV.RestoreSnapshot(fromPlain); err != nil {
			t.Fatal(err)
		}
		if err := intoPlain.RestoreSnapshot(fromKV); err != nil {
			t.Fatal(err)
		}
		if intoKV.Buffer() != nil || intoPlain.Buffer() == nil {
			t.Fatal("a restore changed the trainer's layout")
		}
		intoKV.RunEpisodes(2, nil)
		intoPlain.RunEpisodes(2, nil)
		a, b := takeSnapshot(t, intoKV), takeSnapshot(t, intoPlain)
		for _, kind := range []resilience.SectionKind{resilience.SectionTrainer, resilience.SectionReplay} {
			if !bytes.Equal(section(t, a, kind), section(t, b, kind)) {
				t.Fatalf("%v: restored across layouts, the runs write different %v sections", s, kind)
			}
		}
	}
}
