package replay

import (
	"math/rand"
	"sync"
	"testing"
)

// allSamplers builds one of each sampler kind over buf (reuse wraps
// uniform), mirroring the trainer's construction switch.
func allSamplers(buf *Buffer) []Sampler {
	return []Sampler{
		NewUniformSampler(buf),
		NewLocalitySampler(buf, 4, 8),
		NewPERSampler(buf),
		NewIPLocalitySampler(buf, 1),
		NewRankPERSampler(buf),
		NewReuseSampler(NewUniformSampler(buf), 3),
	}
}

// TestSampleIntoMatchesSample checks the gather-into variants reproduce the
// value-returning API exactly for every sampler, including slice reuse
// across calls.
func TestSampleIntoMatchesSample(t *testing.T) {
	buf := NewBuffer(testSpec(128))
	samplers := allSamplers(buf) // before fill: priority samplers listen on Add
	fillBuffer(buf, 128)
	for _, s := range samplers {
		rngA := rand.New(rand.NewSource(11))
		rngB := rand.New(rand.NewSource(11))
		var dst Sample
		for round := 0; round < 4; round++ {
			want := draw(s, 32, rngA)
			s.SampleInto(&dst, 32, rngB)
			if len(dst.Indices) != len(want.Indices) {
				t.Fatalf("%s: SampleInto %d indices, Sample %d", s.Name(), len(dst.Indices), len(want.Indices))
			}
			for i := range want.Indices {
				if dst.Indices[i] != want.Indices[i] {
					t.Fatalf("%s round %d: index %d = %d, want %d", s.Name(), round, i, dst.Indices[i], want.Indices[i])
				}
			}
			if len(dst.Weights) != len(want.Weights) {
				t.Fatalf("%s: SampleInto %d weights, Sample %d", s.Name(), len(dst.Weights), len(want.Weights))
			}
			for i := range want.Weights {
				if dst.Weights[i] != want.Weights[i] {
					t.Fatalf("%s round %d: weight %d = %v, want %v", s.Name(), round, i, dst.Weights[i], want.Weights[i])
				}
			}
		}
	}
}

// TestConcurrentSampleIntoIsSafe runs many goroutines sampling from one
// shared sampler with private dst/rng — the parallel update engine's read
// pattern. Under -race this is the concurrent-gather safety test; the
// per-stream draws must also stay identical to a serial replay of the same
// streams.
func TestConcurrentSampleIntoIsSafe(t *testing.T) {
	buf := NewBuffer(testSpec(256))
	samplers := allSamplers(buf)
	fillBuffer(buf, 256)
	const workers = 8
	const rounds = 20
	for _, s := range samplers {
		if _, reuse := s.(*ReuseSampler); reuse {
			// The reuse cache intentionally couples streams; skip the
			// per-stream determinism comparison and just hammer it for
			// races.
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + w)))
					var dst Sample
					for r := 0; r < rounds; r++ {
						s.SampleInto(&dst, 32, rng)
					}
				}(w)
			}
			wg.Wait()
			continue
		}
		// Serial reference per stream.
		serial := make([][]int, workers)
		for w := 0; w < workers; w++ {
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var dst Sample
			for r := 0; r < rounds; r++ {
				s.SampleInto(&dst, 32, rng)
				serial[w] = append(serial[w], dst.Indices...)
			}
		}
		// Concurrent run of the same streams.
		concurrent := make([][]int, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + w)))
				var dst Sample
				for r := 0; r < rounds; r++ {
					s.SampleInto(&dst, 32, rng)
					concurrent[w] = append(concurrent[w], dst.Indices...)
				}
			}(w)
		}
		wg.Wait()
		for w := range serial {
			if len(serial[w]) != len(concurrent[w]) {
				t.Fatalf("%s worker %d: %d vs %d indices", s.Name(), w, len(serial[w]), len(concurrent[w]))
			}
			for i := range serial[w] {
				if serial[w][i] != concurrent[w][i] {
					t.Fatalf("%s worker %d: draw %d = %d concurrent, %d serial", s.Name(), w, i, concurrent[w][i], serial[w][i])
				}
			}
		}
	}
}

// TestConcurrentSampleWithGatherIsSafe overlaps SampleInto with GatherAll on
// both storage layouts, the full read mix of one update worker.
func TestConcurrentSampleWithGatherIsSafe(t *testing.T) {
	spec := testSpec(256)
	buf := NewBuffer(spec)
	kv := NewKVBuffer(spec)
	s := NewPERSampler(buf)
	fillBuffer(buf, 256)
	fillBuffer(kv, 256)
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var dst Sample
			batches := make([]*AgentBatch, spec.NumAgents)
			for a := range batches {
				batches[a] = NewAgentBatch(32, spec.ObsDims[a], spec.ActDim)
			}
			for r := 0; r < 15; r++ {
				s.SampleInto(&dst, 32, rng)
				if w%2 == 0 {
					buf.GatherAll(dst.Indices, batches)
				} else {
					kv.GatherAll(dst.Indices, batches)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSampleIntoZeroAlloc asserts the steady-state sampling and gather hot
// paths do not touch the heap once scratch has warmed up.
func TestSampleIntoZeroAlloc(t *testing.T) {
	spec := testSpec(256)
	buf := NewBuffer(spec)
	samplers := allSamplers(buf)
	fillBuffer(buf, 256)
	rng := rand.New(rand.NewSource(5))
	batches := make([]*AgentBatch, spec.NumAgents)
	for a := range batches {
		batches[a] = NewAgentBatch(64, spec.ObsDims[a], spec.ActDim)
	}
	for _, s := range samplers {
		s := s
		var dst Sample
		s.SampleInto(&dst, 64, rng) // warm the scratch
		allocs := testing.AllocsPerRun(50, func() {
			s.SampleInto(&dst, 64, rng)
			buf.GatherAll(dst.Indices, batches)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per sample+gather, want 0", s.Name(), allocs)
		}
	}
}
