package replay

import (
	"math/rand"
	"testing"
)

func TestSamplePlanValidate(t *testing.T) {
	cases := []struct {
		plan SamplePlan
		ok   bool
	}{
		{SamplePlan{Strategy: PlanUniform}, true},
		{SamplePlan{Strategy: PlanLocality, Neighbors: 16, Refs: 64}, true},
		{SamplePlan{Strategy: PlanLocality}, false},
		{SamplePlan{Strategy: "per"}, false},
		{SamplePlan{}, false},
	}
	for _, c := range cases {
		err := c.plan.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.plan, err, c.ok)
		}
	}
}

func TestSamplePlanDeterministic(t *testing.T) {
	for _, plan := range []SamplePlan{
		{Strategy: PlanUniform},
		{Strategy: PlanLocality, Neighbors: 8, Refs: 4},
	} {
		a := make([]int, 100)
		b := make([]int, 100)
		if err := plan.FillIndices(a, 777, 42); err != nil {
			t.Fatal(err)
		}
		if err := plan.FillIndices(b, 777, 42); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: index %d differs: %d != %d", plan, i, a[i], b[i])
			}
			if a[i] < 0 || a[i] >= 777 {
				t.Fatalf("%v: index %d out of range: %d", plan, i, a[i])
			}
		}
		c := make([]int, 100)
		if err := plan.FillIndices(c, 777, 43); err != nil {
			t.Fatal(err)
		}
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%v: different seeds produced identical index streams", plan)
		}
	}
}

// The locality plan fills a batch with full runs of Neighbors consecutive
// indices (mod length), only the final run truncated: 64 full runs of 16,
// and 100 = 64 + 36 rows as one full run and one cut short.
func TestSamplePlanLocalityRuns(t *testing.T) {
	for _, tc := range []struct {
		neighbors, length, n int
		seed                 int64
	}{
		{16, 500, 100, 9},
		{16, 2000, 1024, 2},
		{64, 200, 100, 3},
	} {
		plan := SamplePlan{Strategy: PlanLocality, Neighbors: tc.neighbors, Refs: 4}
		idx := make([]int, tc.n)
		if err := plan.FillIndices(idx, tc.length, tc.seed); err != nil {
			t.Fatal(err)
		}
		for start := 0; start < tc.n; start += plan.Neighbors {
			end := start + plan.Neighbors
			if end > tc.n {
				end = tc.n
			}
			for k := start + 1; k < end; k++ {
				if idx[k] != (idx[k-1]+1)%tc.length {
					t.Fatalf("%+v: run starting at %d breaks at %d: %d then %d", tc, start, k, idx[k-1], idx[k])
				}
			}
		}
	}
}

func TestSamplePlanEmptyStore(t *testing.T) {
	plan := SamplePlan{Strategy: PlanUniform}
	if err := plan.FillIndices(make([]int, 4), 0, 1); err == nil {
		t.Fatal("sampling an empty store did not error")
	}
}

func TestRowLayoutPackSplitRoundTrip(t *testing.T) {
	spec := Spec{NumAgents: 2, ObsDims: []int{3, 5}, ActDim: 4, Capacity: 16}
	layout := NewRowLayout(spec)
	wantStride := (3 + 4 + 1 + 3 + 1) + (5 + 4 + 1 + 5 + 1)
	if layout.Stride() != wantStride {
		t.Fatalf("stride %d, want %d", layout.Stride(), wantStride)
	}

	rng := rand.New(rand.NewSource(4))
	obs := [][]float64{randFloats(rng, 3), randFloats(rng, 5)}
	act := [][]float64{randFloats(rng, 4), randFloats(rng, 4)}
	nxt := [][]float64{randFloats(rng, 3), randFloats(rng, 5)}
	rew := []float64{rng.NormFloat64(), rng.NormFloat64()}
	done := []float64{0, 1}

	row := make([]float64, layout.Stride())
	layout.PackRow(row, obs, act, rew, nxt, done)

	dst := []*AgentBatch{NewAgentBatch(1, 3, 4), NewAgentBatch(1, 5, 4)}
	layout.SplitRowInto(dst, 0, row)
	for a := 0; a < 2; a++ {
		if !equalFloats(dst[a].Obs.Row(0), obs[a]) || !equalFloats(dst[a].Act.Row(0), act[a]) ||
			!equalFloats(dst[a].NextObs.Row(0), nxt[a]) {
			t.Fatalf("agent %d: round trip mutated tensors", a)
		}
		if dst[a].Rew.Data[0] != rew[a] || dst[a].Done.Data[0] != done[a] {
			t.Fatalf("agent %d: rew/done round trip mismatch", a)
		}
	}
}

// The extracted layout must agree bit-for-bit with KVBuffer's interleaving:
// Add through the KV table and gather rows, then pack the same step through
// the layout directly.
func TestRowLayoutMatchesKVBuffer(t *testing.T) {
	spec := Spec{NumAgents: 3, ObsDims: []int{4, 4, 6}, ActDim: 5, Capacity: 8}
	kv := NewKVBuffer(spec)
	layout := NewRowLayout(spec)
	if kv.RowStride() != layout.Stride() {
		t.Fatalf("KV stride %d != layout stride %d", kv.RowStride(), layout.Stride())
	}
	rng := rand.New(rand.NewSource(5))
	obs := [][]float64{randFloats(rng, 4), randFloats(rng, 4), randFloats(rng, 6)}
	act := [][]float64{randFloats(rng, 5), randFloats(rng, 5), randFloats(rng, 5)}
	nxt := [][]float64{randFloats(rng, 4), randFloats(rng, 4), randFloats(rng, 6)}
	rew := []float64{1, 2, 3}
	done := []float64{0, 0, 1}
	kv.Add(obs, act, rew, nxt, done)

	fromKV := make([]float64, layout.Stride())
	kv.GatherRows([]int{0}, fromKV)
	direct := make([]float64, layout.Stride())
	layout.PackRow(direct, obs, act, rew, nxt, done)
	if !equalFloats(fromKV, direct) {
		t.Fatal("layout packing diverges from KVBuffer interleaving")
	}
}

func randFloats(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkFillIndices is one 1024-index draw over fabric-sample's 131 072
// rows: a uniform FillIndices against the math/rand expansion it
// reproduces, and a locality FillIndices in runs of 16.
func BenchmarkFillIndices(b *testing.B) {
	plan := SamplePlan{Strategy: PlanUniform}
	locality := SamplePlan{Strategy: PlanLocality, Neighbors: 16}
	dst := make([]int, 1024)
	for _, impl := range []struct {
		name string
		fill func(seed int64)
	}{
		{"stream", func(seed int64) { _ = plan.FillIndices(dst, 131072, seed) }},
		{"mathrand", func(seed int64) { mathRandFill(plan, dst, 131072, seed) }},
		{"locality", func(seed int64) { _ = locality.FillIndices(dst, 131072, seed) }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.fill(int64(i))
			}
		})
	}
}
