package replay

import "fmt"

// RowLayout is the paper's key-value row shape (§IV-B2) factored out of
// KVBuffer so every component that stores or ships interleaved transition
// rows — the in-process KV table, the segment-packed experience store, and
// the actor/learner wire format — agrees on one layout: for each agent, in
// agent order, [obs, act, rew, nextObs, done] laid out contiguously. One
// row holds every agent's view of a single environment step.
type RowLayout struct {
	spec   Spec
	stride int   // float64s per row (all agents, all fields)
	obsOff []int // per-agent offset of obs within a row
	actOff []int
	rewOff []int
	nxtOff []int
	dnOff  []int
}

// NewRowLayout computes the interleaved row layout for spec.
func NewRowLayout(spec Spec) RowLayout {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	l := RowLayout{
		spec:   spec,
		obsOff: make([]int, spec.NumAgents),
		actOff: make([]int, spec.NumAgents),
		rewOff: make([]int, spec.NumAgents),
		nxtOff: make([]int, spec.NumAgents),
		dnOff:  make([]int, spec.NumAgents),
	}
	off := 0
	for a := 0; a < spec.NumAgents; a++ {
		od := spec.ObsDims[a]
		l.obsOff[a] = off
		off += od
		l.actOff[a] = off
		off += spec.ActDim
		l.rewOff[a] = off
		off++
		l.nxtOff[a] = off
		off += od
		l.dnOff[a] = off
		off++
	}
	l.stride = off
	return l
}

// Spec returns the transition shape the layout was built for.
func (l RowLayout) Spec() Spec { return l.spec }

// Stride returns the float64 count of one interleaved row.
func (l RowLayout) Stride() int { return l.stride }

// field returns the offset within a row, and the width, of agent a's field
// (regionObs … regionDone).
func (l RowLayout) field(a, f int) (off, width int) {
	od := l.spec.ObsDims[a]
	return [numRegions]int{l.obsOff[a], l.actOff[a], l.rewOff[a], l.nxtOff[a], l.dnOff[a]}[f], [numRegions]int{od, l.spec.ActDim, 1, od, 1}[f]
}

// PackRow interleaves one environment step (per-agent obs/act/rew/nextObs/
// done) into dst, which must hold Stride() float64s.
func (l RowLayout) PackRow(dst []float64, obs, act [][]float64, rew []float64, nextObs [][]float64, done []float64) {
	n := l.spec.NumAgents
	if len(obs) != n || len(act) != n || len(rew) != n || len(nextObs) != n || len(done) != n {
		panic(fmt.Sprintf("replay: PackRow got %d/%d/%d/%d/%d rows, want %d each", len(obs), len(act), len(rew), len(nextObs), len(done), n))
	}
	if len(dst) < l.stride {
		panic(fmt.Sprintf("replay: PackRow dst %d floats, want %d", len(dst), l.stride))
	}
	ad := l.spec.ActDim
	for a := 0; a < n; a++ {
		od := l.spec.ObsDims[a]
		copy(dst[l.obsOff[a]:l.obsOff[a]+od], obs[a])
		copy(dst[l.actOff[a]:l.actOff[a]+ad], act[a])
		dst[l.rewOff[a]] = rew[a]
		copy(dst[l.nxtOff[a]:l.nxtOff[a]+od], nextObs[a])
		dst[l.dnOff[a]] = done[a]
	}
}

// SplitRowInto scatters one interleaved row into batch row rowN of the
// per-agent tensors — the per-row leg of the "data reshaping" pass. Obs, Act
// and NextObs may be column views (the trainer's are views of its critics'
// joint inputs): each row lands at rowN times its matrix's pitch. A batch
// whose Rew and Done are nil gets neither.
func (l RowLayout) SplitRowInto(dst []*AgentBatch, rowN int, row []float64) {
	if len(dst) != l.spec.NumAgents {
		panic(fmt.Sprintf("replay: SplitRowInto got %d batches for %d agents", len(dst), l.spec.NumAgents))
	}
	// The tensors are indexed directly, with each agent's offsets hoisted:
	// a handful of few-float copies per agent is the whole cost of this
	// pass, and building a Matrix.Row view for each was about a sixth of it
	// (BenchmarkSplitRows).
	ad := l.spec.ActDim
	for a, d := range dst {
		od := l.spec.ObsDims[a]
		obs, act, nxt := l.obsOff[a], l.actOff[a], l.nxtOff[a]
		o, c, x := rowN*d.Obs.Pitch(), rowN*d.Act.Pitch(), rowN*d.NextObs.Pitch()
		copy(d.Obs.Data[o:o+od], row[obs:obs+od])
		copy(d.Act.Data[c:c+ad], row[act:act+ad])
		copy(d.NextObs.Data[x:x+od], row[nxt:nxt+od])
		if d.Rew != nil {
			d.Rew.Data[rowN] = row[l.rewOff[a]]
			d.Done.Data[rowN] = row[l.dnOff[a]]
		}
	}
}

// SplitRows scatters count packed rows into the per-agent batch tensors.
func (l RowLayout) SplitRows(rows []float64, count int, dst []*AgentBatch) {
	if len(rows) < count*l.stride {
		panic(fmt.Sprintf("replay: SplitRows got %d floats for %d rows of %d", len(rows), count, l.stride))
	}
	for rowN := 0; rowN < count; rowN++ {
		l.SplitRowInto(dst, rowN, rows[rowN*l.stride:(rowN+1)*l.stride])
	}
}
