package core

import (
	"hash/crc32"
	"runtime"
	"testing"

	"marlperf/internal/mpe"
)

// TestTrainerGoldenCheckpoints pins the checkpoint bytes of a few short,
// fixed-seed training runs. The constants were recorded at the commit before
// the blocked kernels and the selective backward passes landed (PR 12,
// 51ea08d), with the scalar ikj loops still in place, so a kernel or backward
// change that alters even one rounding anywhere in acting, target
// computation, either loss or the optimizer step fails here. Every
// distributed ≡ local / batched ≡ single test compares two runs of the same
// build; this is the one that compares a build with its predecessors.
func TestTrainerGoldenCheckpoints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// arm64 (and others) may fuse x*y+z into one rounding, so their
		// checkpoints legitimately differ from the amd64 constants.
		t.Skipf("golden CRCs were recorded on amd64, not %s", runtime.GOARCH)
	}
	cases := []struct {
		name     string
		cfg      func() Config
		agents   int
		episodes int
		want     uint32
	}{
		// Hidden 16, batch 32, joint width 69: every kernel runs its
		// remainder paths (k and n not multiples of four).
		{"maddpg-small", func() Config { return smallConfig(MADDPG) }, 3, 30, 0xfa10cbf5},
		// Twin critics, delayed actor updates, target smoothing noise.
		{"matd3-small", func() Config { return smallConfig(MATD3) }, 3, 30, 0x09e2a37e},
		// The paper's 64-unit layers at a batch large enough to exercise the
		// blocked main loops, and prioritized IS weights in the critic loss.
		{"maddpg-wide-ip", func() Config {
			c := smallConfig(MADDPG)
			c.HiddenSize = 64
			c.BatchSize = 128
			c.Sampler = SamplerIPLocality
			return c
		}, 2, 16, 0xc42b454b},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tr, err := NewTrainer(tc.cfg(), mpe.NewCooperativeNavigation(tc.agents))
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
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
