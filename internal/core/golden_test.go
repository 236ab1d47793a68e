package core

import (
	"hash/crc32"
	"runtime"
	"testing"

	"marlperf/internal/expstore"
	"marlperf/internal/mpe"
)

// TestTrainerGoldenCheckpoints pins the checkpoint bytes of a few short,
// fixed-seed training runs, so a kernel or backward change that alters even
// one rounding anywhere in acting, target computation, either loss or the
// optimizer step fails here. The constants were recorded on amd64 when every
// product step became one fused multiply-add (d = fma(a, b, d), the kernels'
// contract in internal/tensor): each one read the same with the process
// forced onto each of the three product bodies (Go, AVX2, AVX-512). The
// values they replaced were recorded with every multiply and every add of a
// product rounded on its own. Every distributed ≡ local / batched ≡ single test compares two runs of the
// same build; this is the one that compares a build with its predecessors.
func TestTrainerGoldenCheckpoints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The products round alike everywhere, but arm64 (and others) may
		// fuse an x*y+z elsewhere — a loss, the optimizer — so their
		// checkpoints legitimately differ from the amd64 constants.
		t.Skipf("golden CRCs were recorded on amd64, not %s", runtime.GOARCH)
	}
	cases := []struct {
		name     string
		cfg      func() Config
		agents   int
		episodes int
		want     uint32
		// service wires a local expstore.Source, running cfg's sampler as a
		// plan, through SetExperienceService as both source and sink.
		service bool
	}{
		// Hidden 16, batch 32, joint width 69: every kernel runs its
		// remainder paths (k and n not multiples of four).
		{"maddpg-small", func() Config { return smallConfig(MADDPG) }, 3, 30, 0xb667807c, false},
		// Twin critics, delayed actor updates, target smoothing noise.
		{"matd3-small", func() Config { return smallConfig(MATD3) }, 3, 30, 0xe9941dd8, false},
		// The paper's 64-unit layers at a batch large enough to exercise the
		// blocked main loops, and prioritized IS weights in the critic loss.
		{"maddpg-wide-ip", func() Config {
			c := smallConfig(MADDPG)
			c.HiddenSize = 64
			c.BatchSize = 128
			c.Sampler = SamplerIPLocality
			return c
		}, 2, 16, 0xee0c60b5, false},
		// One cell for each path that writes sampled rows into the critic's
		// joint inputs (added before the batches became column views of them).
		// The key-value table's row split (KVBuffer.GatherAll): the layout is
		// invisible to training, so these are maddpg-small's bytes.
		{"maddpg-kv", func() Config {
			c := smallConfig(MADDPG)
			c.UseKVLayout = true
			return c
		}, 3, 30, 0xb667807c, false},
		// Neighbour runs on the baseline Buffer (Buffer.GatherAll).
		{"maddpg-locality", func() Config {
			c := smallConfig(MADDPG)
			c.Sampler = SamplerLocality
			c.Neighbors, c.Refs = 8, 4
			return c
		}, 3, 30, 0x15475337, false},
		// A local experience source (RowLayout.SplitRows), under each plan.
		{"maddpg-source-uniform", func() Config { return smallConfig(MADDPG) }, 3, 30, 0x759ec4fd, true},
		{"maddpg-source-locality", func() Config {
			c := smallConfig(MADDPG)
			c.Sampler = SamplerLocality
			c.Neighbors, c.Refs = 8, 4
			return c
		}, 3, 30, 0xb572183a, true},
		// Two scratches on the pool whatever GOMAXPROCS is, and the twin
		// critic reading the joint input before the actor's probabilities
		// replace agent i's actions: matd3-small's bytes.
		{"matd3-workers2", func() Config {
			c := smallConfig(MATD3)
			c.UpdateWorkers = 2
			return c
		}, 3, 30, 0xe9941dd8, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg, env := tc.cfg(), mpe.NewCooperativeNavigation(tc.agents)
			tr, err := NewTrainer(cfg, env)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if tc.service {
				plan, err := cfg.SamplePlan()
				if err != nil {
					t.Fatal(err)
				}
				src, err := expstore.NewSource(expstore.NewRing(expSpec(cfg, env)), plan)
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.SetExperienceService(src, src); err != nil {
					t.Fatal(err)
				}
			}
			tr.RunEpisodes(tc.episodes, nil)
			if tr.UpdateCount() == 0 {
				t.Fatal("no updates ran; the golden would pin only initialization")
			}
			// Hash the body without its own CRC trailer: the CRC of a stream
			// that ends in its CRC is the same constant for every stream.
			state := trainerStateBytes(t, tr)
			if got := crc32.ChecksumIEEE(state[:len(state)-4]); got != tc.want {
				t.Fatalf("checkpoint CRC %#08x after %d updates, want %#08x: a kernel or backward pass changed a rounding",
					got, tr.UpdateCount(), tc.want)
			}
		})
	}
}
