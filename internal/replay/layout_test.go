package replay

import (
	"math"
	"math/rand"
	"testing"
)

// splitRowIntoViaRow is SplitRowInto as it was written before the tensors
// were indexed directly: one Matrix.Row view per field per agent. The
// differential test and the benchmark compare with it.
func splitRowIntoViaRow(l RowLayout, dst []*AgentBatch, rowN int, row []float64) {
	ad := l.spec.ActDim
	for a := 0; a < l.spec.NumAgents; a++ {
		od := l.spec.ObsDims[a]
		d := dst[a]
		copy(d.Obs.Row(rowN), row[l.obsOff[a]:l.obsOff[a]+od])
		copy(d.Act.Row(rowN), row[l.actOff[a]:l.actOff[a]+ad])
		d.Rew.Data[rowN] = row[l.rewOff[a]]
		copy(d.NextObs.Row(rowN), row[l.nxtOff[a]:l.nxtOff[a]+od])
		d.Done.Data[rowN] = row[l.dnOff[a]]
	}
}

func batchesFor(spec Spec, n int) []*AgentBatch {
	dst := make([]*AgentBatch, spec.NumAgents)
	for a := range dst {
		dst[a] = NewAgentBatch(n, spec.ObsDims[a], spec.ActDim)
	}
	return dst
}

// SplitRowInto and SplitRows must write exactly the floats the Row-view
// body wrote, into every batch row, for uniform and ragged observation
// widths alike — and nothing outside the row they were given.
func TestSplitRowIntoMatchesRowViews(t *testing.T) {
	specs := []Spec{
		{NumAgents: 1, ObsDims: []int{1}, ActDim: 1, Capacity: 4},
		{NumAgents: 3, ObsDims: []int{16, 16, 16}, ActDim: 5, Capacity: 4},
		{NumAgents: 4, ObsDims: []int{7, 1, 12, 3}, ActDim: 2, Capacity: 4},
	}
	const n = 9
	rng := rand.New(rand.NewSource(11))
	for _, spec := range specs {
		l := NewRowLayout(spec)
		rows := make([]float64, n*l.Stride())
		for i := range rows {
			rows[i] = rng.NormFloat64()
		}
		rows[3] = math.NaN()
		want, got, whole := batchesFor(spec, n), batchesFor(spec, n), batchesFor(spec, n)
		// Out of order, so a write to the wrong batch row cannot hide.
		for _, rowN := range rng.Perm(n) {
			row := rows[rowN*l.Stride() : (rowN+1)*l.Stride()]
			splitRowIntoViaRow(l, want, rowN, row)
			l.SplitRowInto(got, rowN, row)
		}
		l.SplitRows(rows, n, whole)
		for a := range want {
			fields := []struct {
				name    string
				w, g, s []float64
			}{
				{"obs", want[a].Obs.Data, got[a].Obs.Data, whole[a].Obs.Data},
				{"act", want[a].Act.Data, got[a].Act.Data, whole[a].Act.Data},
				{"rew", want[a].Rew.Data, got[a].Rew.Data, whole[a].Rew.Data},
				{"next_obs", want[a].NextObs.Data, got[a].NextObs.Data, whole[a].NextObs.Data},
				{"done", want[a].Done.Data, got[a].Done.Data, whole[a].Done.Data},
			}
			for _, f := range fields {
				for i := range f.w {
					if w := math.Float64bits(f.w[i]); math.Float64bits(f.g[i]) != w || math.Float64bits(f.s[i]) != w {
						t.Fatalf("obs dims %v, agent %d, %s[%d]: SplitRowInto %v, SplitRows %v, Row views %v",
							spec.ObsDims, a, f.name, i, f.g[i], f.s[i], f.w[i])
					}
				}
			}
		}
	}
}

// BenchmarkSplitRows times the reshaping pass of one 1024-row draw at the
// benchmark's shape (three agents, 16-float observations), by the Row-view
// body and by SplitRowInto.
func BenchmarkSplitRows(b *testing.B) {
	spec := Spec{NumAgents: 3, ObsDims: []int{16, 16, 16}, ActDim: 5, Capacity: 4}
	l := NewRowLayout(spec)
	const n = 1024
	rows := make([]float64, n*l.Stride())
	dst := batchesFor(spec, n)
	b.Run("row-views", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for rowN := 0; rowN < n; rowN++ {
				splitRowIntoViaRow(l, dst, rowN, rows[rowN*l.Stride():(rowN+1)*l.Stride()])
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.SplitRows(rows, n, dst)
		}
	})
}
