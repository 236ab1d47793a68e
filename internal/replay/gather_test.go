package replay

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"marlperf/internal/tensor"
)

// jointBatches returns n-row batches laid out as the trainer's are: agent
// a's Obs and Act column views of one joint matrix, its NextObs of another,
// each joint matrix two columns wider than the blocks (and the second one an
// action block per agent wider, for the target probabilities) and filled
// with a canary no gather writes.
func jointBatches(spec Spec, n int, canary float64) ([]*AgentBatch, [2]*tensor.Matrix) {
	width := 2
	for _, d := range spec.ObsDims {
		width += d + spec.ActDim
	}
	cur, next := tensor.New(n, width), tensor.New(n, width)
	cur.Fill(canary)
	next.Fill(canary)
	dst := make([]*AgentBatch, spec.NumAgents)
	obsOff, actOff := 1, 1
	for _, d := range spec.ObsDims {
		actOff += d
	}
	for a, d := range spec.ObsDims {
		dst[a] = &AgentBatch{
			Obs:     cur.ColView(obsOff, obsOff+d),
			Act:     cur.ColView(actOff, actOff+spec.ActDim),
			Rew:     tensor.New(n, 1),
			NextObs: next.ColView(obsOff, obsOff+d),
			Done:    tensor.New(n, 1),
		}
		obsOff += d
		actOff += spec.ActDim
	}
	return dst, [2]*tensor.Matrix{cur, next}
}

// gatherIndices returns a draw longer than the gather's lookahead, in no
// order, with repeats, and its last rows beyond the reach of any prefetch.
func gatherIndices(length, n int, rng *rand.Rand) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(length)
	}
	idx[n/2] = idx[n/3]
	return idx
}

// TestGatherIntoViewsMatchesDense: Buffer.GatherAll, KVBuffer.GatherAll and
// RowLayout.SplitRows write the same bits into batches that are column views
// of joint matrices as into dense batches, and nothing into the joint
// matrices' other columns.
func TestGatherIntoViewsMatchesDense(t *testing.T) {
	canary := math.Float64frombits(0x7ff8dead0000beef)
	rng := rand.New(rand.NewSource(41))
	for _, spec := range []Spec{
		{NumAgents: 3, ObsDims: []int{16, 16, 16}, ActDim: 5, Capacity: 300},
		{NumAgents: 4, ObsDims: []int{7, 1, 12, 3}, ActDim: 2, Capacity: 300},
		{NumAgents: 1, ObsDims: []int{1}, ActDim: 1, Capacity: 300},
	} {
		buf, kv := NewBuffer(spec), NewKVBuffer(spec)
		for i := 0; i < spec.Capacity; i++ {
			obs, act, rew, next, done := randomStep(spec, rng)
			buf.Add(obs, act, rew, next, done)
			kv.Add(obs, act, rew, next, done)
		}
		for _, n := range []int{1, gatherLookahead, gatherLookahead + 1, 97} {
			idx := gatherIndices(spec.Capacity, n, rng)
			rows := make([]float64, n*kv.RowStride())
			kv.GatherRows(idx, rows)
			for name, gather := range map[string]func([]*AgentBatch){
				"Buffer":    func(dst []*AgentBatch) { buf.GatherAll(idx, dst) },
				"KVBuffer":  func(dst []*AgentBatch) { kv.GatherAll(idx, dst) },
				"SplitRows": func(dst []*AgentBatch) { kv.Layout().SplitRows(rows, n, dst) },
			} {
				label := fmt.Sprintf("%s obs dims %v, %d rows", name, spec.ObsDims, n)
				dense := batchesFor(spec, n)
				gather(dense)
				views, joint := jointBatches(spec, n, canary)
				gather(views)
				for a := range dense {
					for _, f := range []struct {
						field string
						d, v  *tensor.Matrix
					}{
						{"obs", dense[a].Obs, views[a].Obs}, {"act", dense[a].Act, views[a].Act},
						{"rew", dense[a].Rew, views[a].Rew}, {"next_obs", dense[a].NextObs, views[a].NextObs},
						{"done", dense[a].Done, views[a].Done},
					} {
						for r := 0; r < n; r++ {
							for c := 0; c < f.d.Cols; c++ {
								if math.Float64bits(f.d.At(r, c)) != math.Float64bits(f.v.At(r, c)) {
									t.Fatalf("%s: agent %d %s[%d][%d] is %v in a view, %v dense", label, a, f.field, r, c, f.v.At(r, c), f.d.At(r, c))
								}
							}
						}
					}
				}
				// The first and last columns of both joint matrices, and the
				// action blocks of the second, are no batch's.
				for k, m := range joint {
					for r := 0; r < n; r++ {
						row := m.Row(r)
						for c, v := range row {
							untouched := c == 0 || c == len(row)-1 || k == 1 && c >= len(row)-1-spec.NumAgents*spec.ActDim
							if untouched && math.Float64bits(v) != math.Float64bits(canary) {
								t.Fatalf("%s: joint matrix %d, row %d, column %d was written", label, k, r, c)
							}
						}
					}
				}
			}
		}
	}
}

// TestGatherSkipsNilRewardsAndDones: a batch whose Rew and Done are nil is
// gathered without them by Buffer.GatherAll, KVBuffer.GatherAll and
// RowLayout.SplitRows — nothing is written for them, they stay nil — and
// every other field, and every field of the batches that do have them, is
// what a gather into full batches writes. With the tracer on, the baseline
// buffer reads only the fields it gathers.
func TestGatherSkipsNilRewardsAndDones(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	spec := Spec{NumAgents: 3, ObsDims: []int{7, 5, 9}, ActDim: 2, Capacity: 200}
	buf, kv := NewBuffer(spec), NewKVBuffer(spec)
	for i := 0; i < spec.Capacity; i++ {
		obs, act, rew, next, done := randomStep(spec, rng)
		buf.Add(obs, act, rew, next, done)
		kv.Add(obs, act, rew, next, done)
	}
	const n = 97
	idx := gatherIndices(spec.Capacity, n, rng)
	rows := make([]float64, n*kv.RowStride())
	kv.GatherRows(idx, rows)
	for name, gather := range map[string]func([]*AgentBatch){
		"Buffer":    func(dst []*AgentBatch) { buf.GatherAll(idx, dst) },
		"KVBuffer":  func(dst []*AgentBatch) { kv.GatherAll(idx, dst) },
		"SplitRows": func(dst []*AgentBatch) { kv.Layout().SplitRows(rows, n, dst) },
	} {
		full := batchesFor(spec, n)
		gather(full)
		for keep := 0; keep < spec.NumAgents; keep++ {
			part := batchesFor(spec, n)
			for a, b := range part {
				if a != keep {
					b.Rew, b.Done = nil, nil
				}
			}
			gather(part)
			for a := range part {
				if a != keep && (part[a].Rew != nil || part[a].Done != nil) {
					t.Fatalf("%s: agent %d's nil Rew/Done were replaced", name, a)
				}
				if !batchEqual(full[a], part[a]) {
					t.Fatalf("%s keeping agent %d's scalars: agent %d's batch differs from a full gather", name, keep, a)
				}
			}
		}
	}

	var want recordingTracer
	for a, od := range spec.ObsDims {
		for _, i := range idx {
			want.Access(buf.regionBase(a, regionObs)+uint64(i*od*8), od*8)
			want.Access(buf.regionBase(a, regionAct)+uint64(i*spec.ActDim*8), spec.ActDim*8)
			want.Access(buf.regionBase(a, regionNextObs)+uint64(i*od*8), od*8)
		}
	}
	got := &recordingTracer{}
	buf.SetTracer(got)
	part := batchesFor(spec, n)
	for _, b := range part {
		b.Rew, b.Done = nil, nil
	}
	buf.GatherAll(idx, part)
	sameTrace(t, "Buffer without scalars", got, &want)
}

// batchEqual reports whether two batches hold the same bits in every field
// both have.
func batchEqual(x, y *AgentBatch) bool {
	same := func(a, b *tensor.Matrix) bool {
		if a == nil || b == nil {
			return true
		}
		for i := range a.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
				return false
			}
		}
		return true
	}
	return same(x.Obs, y.Obs) && same(x.Act, y.Act) && same(x.Rew, y.Rew) && same(x.NextObs, y.NextObs) && same(x.Done, y.Done)
}

// randomStep returns one environment step of N(0, 1) values for spec.
func randomStep(spec Spec, rng *rand.Rand) (obs, act [][]float64, rew []float64, next [][]float64, done []float64) {
	row := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for _, d := range spec.ObsDims {
		obs, act, next = append(obs, row(d)), append(act, row(spec.ActDim)), append(next, row(d))
	}
	return obs, act, row(spec.NumAgents), next, row(spec.NumAgents)
}

// TestGatherTraceUnchanged: the gathers' prefetches are not logical
// accesses. The tracer sees, for each index in order, the five reads of the
// baseline buffer's fields of the gathered agent, or the key-value table's
// one row — what it saw before the gathers prefetched.
func TestGatherTraceUnchanged(t *testing.T) {
	spec := testSpec(64)
	buf, kv := NewBuffer(spec), NewKVBuffer(spec)
	fillBuffer(buf, 64)
	kv.ReorganizeFrom(buf)
	idx := gatherIndices(64, 3*gatherLookahead+5, rand.New(rand.NewSource(42)))

	var want recordingTracer
	for a, od := range spec.ObsDims {
		ad := spec.ActDim
		for _, i := range idx {
			want.Access(buf.regionBase(a, regionObs)+uint64(i*od*8), od*8)
			want.Access(buf.regionBase(a, regionAct)+uint64(i*ad*8), ad*8)
			want.Access(buf.regionBase(a, regionRew)+uint64(i*8), 8)
			want.Access(buf.regionBase(a, regionNextObs)+uint64(i*od*8), od*8)
			want.Access(buf.regionBase(a, regionDone)+uint64(i*8), 8)
		}
	}
	got := &recordingTracer{}
	buf.SetTracer(got)
	buf.GatherAll(idx, batchesFor(spec, len(idx)))
	sameTrace(t, "Buffer", got, &want)

	want = recordingTracer{}
	stride := kv.RowStride()
	for _, i := range idx {
		want.Access(kv.base+uint64(i*stride*8), stride*8)
	}
	got = &recordingTracer{}
	kv.SetTracer(got)
	kv.GatherAll(idx, batchesFor(spec, len(idx)))
	sameTrace(t, "KVBuffer", got, &want)
}

func sameTrace(t *testing.T, name string, got, want *recordingTracer) {
	t.Helper()
	if len(got.addrs) != len(want.addrs) {
		t.Fatalf("%s: %d traced accesses, want %d", name, len(got.addrs), len(want.addrs))
	}
	for i := range want.addrs {
		if got.addrs[i] != want.addrs[i] || got.sizes[i] != want.sizes[i] {
			t.Fatalf("%s: access %d is %d bytes at %#x, want %d at %#x", name, i, got.sizes[i], got.addrs[i], want.sizes[i], want.addrs[i])
		}
	}
}

// BenchmarkBufferGatherAll times the baseline gather of one learn-local
// draw: three agents' 1024 uniform rows from a 65 536-row buffer (48 MB,
// beyond the last-level cache of the hosts this runs on) into batches that
// are column views of joint inputs, as the trainer's are.
func BenchmarkBufferGatherAll(b *testing.B) {
	spec := Spec{NumAgents: 3, ObsDims: []int{16, 16, 16}, ActDim: 5, Capacity: 65536}
	rng := rand.New(rand.NewSource(9))
	buf := NewBuffer(spec)
	obs, act, rew, next, done := randomStep(spec, rng)
	for i := 0; i < spec.Capacity; i++ {
		buf.Add(obs, act, rew, next, done)
	}
	// Draws cycle through 64 MB of rows: the benchmark does not warm the
	// cache for itself.
	const n = 1024
	draws := make([][]int, 64)
	for d := range draws {
		draws[d] = gatherIndices(spec.Capacity, n, rng)
	}
	dst, _ := jointBatches(spec, n, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.GatherAll(draws[i%len(draws)], dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}
