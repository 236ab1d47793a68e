package replay

import (
	"math/rand"
	"testing"
)

// testSpec returns a small 3-agent spec with distinct obs widths.
func testSpec(capacity int) Spec {
	return Spec{NumAgents: 3, ObsDims: []int{4, 4, 6}, ActDim: 5, Capacity: capacity}
}

// fillBuffer adds n synthetic transitions whose values encode (agent, index)
// so gathers can be verified exactly. Transition t has obs[a][j] = enc(t,a)+j
// where enc(t,a) = float64(t*10 + a) * 1000.
func fillBuffer(b Store, n int) {
	spec := b.Spec()
	for t := 0; t < n; t++ {
		obs := make([][]float64, spec.NumAgents)
		act := make([][]float64, spec.NumAgents)
		rew := make([]float64, spec.NumAgents)
		nextObs := make([][]float64, spec.NumAgents)
		done := make([]float64, spec.NumAgents)
		for a := 0; a < spec.NumAgents; a++ {
			enc := float64(t*10+a) * 1000
			obs[a] = make([]float64, spec.ObsDims[a])
			nextObs[a] = make([]float64, spec.ObsDims[a])
			for j := range obs[a] {
				obs[a][j] = enc + float64(j)
				nextObs[a][j] = enc + float64(j) + 0.5
			}
			act[a] = make([]float64, spec.ActDim)
			act[a][t%spec.ActDim] = 1
			rew[a] = enc
			done[a] = float64(t % 2)
		}
		b.Add(obs, act, rew, nextObs, done)
	}
}

func TestSpecValidate(t *testing.T) {
	good := testSpec(8)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{NumAgents: 0, ObsDims: nil, ActDim: 5, Capacity: 8},
		{NumAgents: 2, ObsDims: []int{4}, ActDim: 5, Capacity: 8},
		{NumAgents: 1, ObsDims: []int{0}, ActDim: 5, Capacity: 8},
		{NumAgents: 1, ObsDims: []int{4}, ActDim: 0, Capacity: 8},
		{NumAgents: 1, ObsDims: []int{4}, ActDim: 5, Capacity: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestBufferAddAndLen(t *testing.T) {
	b := NewBuffer(testSpec(16))
	if b.Len() != 0 || b.Spec().Capacity != 16 {
		t.Fatalf("fresh buffer Len=%d Cap=%d", b.Len(), b.Spec().Capacity)
	}
	fillBuffer(b, 5)
	if b.Len() != 5 {
		t.Fatalf("Len = %d, want 5", b.Len())
	}
}

func TestBufferRingWraps(t *testing.T) {
	b := NewBuffer(testSpec(4))
	fillBuffer(b, 10)
	if b.Len() != 4 {
		t.Fatalf("Len after overfill = %d, want 4", b.Len())
	}
	// Slot 0 should now hold transition t=8 (10 adds into capacity 4:
	// t=8 lands on slot 8%4=0).
	batch := NewAgentBatch(1, 4, 5)
	b.Gather(0, []int{0}, batch)
	wantEnc := float64(8*10+0) * 1000
	if batch.Obs.At(0, 0) != wantEnc {
		t.Fatalf("wrapped slot 0 obs = %v, want %v", batch.Obs.At(0, 0), wantEnc)
	}
}

func TestGatherExactValues(t *testing.T) {
	b := NewBuffer(testSpec(16))
	fillBuffer(b, 8)
	batch := NewAgentBatch(3, 6, 5)
	b.Gather(2, []int{1, 5, 7}, batch)
	for row, tIdx := range []int{1, 5, 7} {
		enc := float64(tIdx*10+2) * 1000
		for j := 0; j < 6; j++ {
			if got := batch.Obs.At(row, j); got != enc+float64(j) {
				t.Fatalf("obs[%d][%d] = %v, want %v", row, j, got, enc+float64(j))
			}
			if got := batch.NextObs.At(row, j); got != enc+float64(j)+0.5 {
				t.Fatalf("nextObs[%d][%d] = %v", row, j, got)
			}
		}
		if batch.Rew.Data[row] != enc {
			t.Fatalf("rew[%d] = %v, want %v", row, batch.Rew.Data[row], enc)
		}
		if batch.Done.Data[row] != float64(tIdx%2) {
			t.Fatalf("done[%d] = %v", row, batch.Done.Data[row])
		}
		if batch.Act.At(row, tIdx%5) != 1 {
			t.Fatalf("act[%d] one-hot misplaced: %v", row, batch.Act.Row(row))
		}
	}
}

func TestGatherAllSharedIndices(t *testing.T) {
	b := NewBuffer(testSpec(16))
	fillBuffer(b, 8)
	spec := b.Spec()
	batches := make([]*AgentBatch, spec.NumAgents)
	for a := range batches {
		batches[a] = NewAgentBatch(2, spec.ObsDims[a], spec.ActDim)
	}
	b.GatherAll([]int{3, 6}, batches)
	for a := 0; a < spec.NumAgents; a++ {
		enc := float64(3*10+a) * 1000
		if batches[a].Obs.At(0, 0) != enc {
			t.Fatalf("agent %d row 0 = %v, want %v", a, batches[a].Obs.At(0, 0), enc)
		}
	}
}

func TestGatherOutOfRangePanics(t *testing.T) {
	b := NewBuffer(testSpec(8))
	fillBuffer(b, 3)
	batch := NewAgentBatch(1, 4, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("Gather past Len did not panic")
		}
	}()
	b.Gather(0, []int{5}, batch)
}

func TestAddShapeMismatchPanics(t *testing.T) {
	b := NewBuffer(testSpec(8))
	defer func() {
		if recover() == nil {
			t.Fatal("Add with wrong agent count did not panic")
		}
	}()
	b.Add(make([][]float64, 1), make([][]float64, 1), make([]float64, 1), make([][]float64, 1), make([]float64, 1))
}

func TestAddListenerReceivesSlots(t *testing.T) {
	b := NewBuffer(testSpec(4))
	var got []int
	b.AddListener(func(idx int) { got = append(got, idx) })
	fillBuffer(b, 6)
	want := []int{0, 1, 2, 3, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("listener saw %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("listener saw %v, want %v", got, want)
		}
	}
}

// recordingTracer captures emitted accesses for trace tests.
type recordingTracer struct {
	addrs []uint64
	sizes []int
}

func (r *recordingTracer) Access(addr uint64, size int) {
	r.addrs = append(r.addrs, addr)
	r.sizes = append(r.sizes, size)
}

func TestGatherEmitsTraces(t *testing.T) {
	b := NewBuffer(testSpec(8))
	fillBuffer(b, 4)
	tr := &recordingTracer{}
	b.SetTracer(tr)
	batch := NewAgentBatch(2, 4, 5)
	b.Gather(0, []int{0, 2}, batch)
	// 5 regions per index × 2 indices.
	if len(tr.addrs) != 10 {
		t.Fatalf("trace emitted %d accesses, want 10", len(tr.addrs))
	}
	// Different agents' regions must not overlap (distant allocations).
	b.SetTracer(nil)
	tr2 := &recordingTracer{}
	b.SetTracer(tr2)
	b.Gather(1, []int{0}, NewAgentBatch(1, 4, 5))
	for _, a0 := range tr.addrs[:5] {
		for _, a1 := range tr2.addrs {
			if a0 == a1 {
				t.Fatal("agent 0 and agent 1 regions overlap in the synthetic address space")
			}
		}
	}
}

func TestUniformSamplerInRangeAndCoverage(t *testing.T) {
	b := NewBuffer(testSpec(64))
	fillBuffer(b, 50)
	s := NewUniformSampler(b)
	rng := rand.New(rand.NewSource(1))
	sample := draw(s, 1024, rng)
	if len(sample.Indices) != 1024 {
		t.Fatalf("got %d indices", len(sample.Indices))
	}
	if sample.Weights != nil {
		t.Fatal("uniform sampler should not produce weights")
	}
	seen := map[int]bool{}
	for _, i := range sample.Indices {
		if i < 0 || i >= 50 {
			t.Fatalf("index %d out of range", i)
		}
		seen[i] = true
	}
	// With 1024 draws over 50 slots every slot should appear.
	if len(seen) != 50 {
		t.Fatalf("uniform sampling covered %d/50 slots", len(seen))
	}
}

func TestUniformSamplerEmptyPanics(t *testing.T) {
	b := NewBuffer(testSpec(8))
	s := NewUniformSampler(b)
	defer func() {
		if recover() == nil {
			t.Fatal("sampling empty buffer did not panic")
		}
	}()
	draw(s, 4, rand.New(rand.NewSource(1)))
}

// checkLocalityRuns fails unless idx is runs of neighbors consecutive slots
// (mod length), only the final run truncated.
func checkLocalityRuns(t *testing.T, idx []int, neighbors, length int) {
	t.Helper()
	for i := range idx {
		if i%neighbors != 0 && idx[i] != (idx[i-1]+1)%length {
			t.Fatalf("run %d offset %d: index %d, want %d", i/neighbors, i%neighbors, idx[i], (idx[i-1]+1)%length)
		}
	}
}

func TestLocalitySamplerContiguousRuns(t *testing.T) {
	b := NewBuffer(testSpec(2048))
	fillBuffer(b, 2000)
	s := NewLocalitySampler(b, 16, 64)
	rng := rand.New(rand.NewSource(2))
	sample := draw(s, 1024, rng)
	if len(sample.Indices) != 1024 {
		t.Fatalf("got %d indices, want 1024", len(sample.Indices))
	}
	// Refs is IPLocalitySampler's alone.
	if len(sample.Refs) != 0 {
		t.Fatalf("got %d refs, want none", len(sample.Refs))
	}
	// 64 runs of 16, each consecutive modulo the buffer length.
	checkLocalityRuns(t, sample.Indices, 16, 2000)
}

func TestLocalitySamplerTruncatesFinalRun(t *testing.T) {
	b := NewBuffer(testSpec(256))
	fillBuffer(b, 200)
	s := NewLocalitySampler(b, 64, 16)
	sample := draw(s, 100, rand.New(rand.NewSource(3))) // 100 = 64 + 36
	if len(sample.Indices) != 100 {
		t.Fatalf("got %d indices, want exactly 100", len(sample.Indices))
	}
	if len(sample.Refs) != 0 {
		t.Fatalf("got %d refs, want none", len(sample.Refs))
	}
	// One full run of 64 and one of 36.
	checkLocalityRuns(t, sample.Indices, 64, 200)
}

// The plan samplers index a buffer by insertion order, so a draw names the
// rows an experience source fed the same steps would: partly filled and
// after the ring wraps (100 steps into 64 slots, the oldest row at the write
// cursor), the k-th index of FillIndices is the row written k steps after the
// oldest, and a locality run steps through consecutive slots across the ring
// end.
func TestLocalitySamplerWrapsAroundBufferEnd(t *testing.T) {
	for _, steps := range []int{10, 100} {
		b := NewBuffer(testSpec(64))
		fillBuffer(b, steps)
		first := steps - b.Len() // step number of the oldest row
		for _, s := range []*PlanSampler{NewUniformSampler(b), NewLocalitySampler(b, 8, 4)} {
			want := make([]int, 32)
			for trial := int64(0); trial < 50; trial++ {
				sample := draw(s, len(want), rand.New(rand.NewSource(trial)))
				if len(sample.Indices) != len(want) {
					t.Fatalf("got %d indices, want %d", len(sample.Indices), len(want))
				}
				if err := s.plan.FillIndices(want, b.Len(), rand.New(rand.NewSource(trial)).Int63()); err != nil {
					t.Fatal(err)
				}
				for i, slot := range sample.Indices {
					// fillBuffer writes agent 0's reward as step·10 000.
					if got := int(b.rew[0][slot]/10000) - first; got != want[i] {
						t.Fatalf("%d steps, %s: index %d is slot %d holding row %d, want row %d",
							steps, s.Name(), i, slot, got, want[i])
					}
					if s.plan.Strategy == PlanLocality && i%8 != 0 && slot != (sample.Indices[i-1]+1)%b.Len() {
						t.Fatalf("%d steps: run breaks at index %d: slot %d after %d", steps, i, slot, sample.Indices[i-1])
					}
				}
			}
		}
	}
}

func TestLocalitySamplerBadParamsPanics(t *testing.T) {
	b := NewBuffer(testSpec(8))
	defer func() {
		if recover() == nil {
			t.Fatal("zero neighbors did not panic")
		}
	}()
	NewLocalitySampler(b, 0, 16)
}

func TestLocalitySamplerName(t *testing.T) {
	b := NewBuffer(testSpec(8))
	s := NewLocalitySampler(b, 16, 64)
	if s.Name() != "locality(n=16,ref=64)" {
		t.Fatalf("Name = %q", s.Name())
	}
}
