package replay

import (
	"fmt"

	"marlperf/internal/rowmem"
)

// KVBuffer is the paper's transition data-layout reorganization (§IV-B2):
// instead of per-agent buffers in distant allocations, the replay store
// becomes a key-value table where the key is the time index and the value
// is every agent's transition for that step, laid out contiguously. A
// mini-batch gather then runs one loop of m row copies — O(m) instead of
// the baseline O(N·m) scattered gathers — and a single row access brings
// all agents' data through the cache together.
//
// The row shape itself lives in RowLayout, shared with the segment-packed
// experience store and the actor/learner wire format.
type KVBuffer struct {
	ring
	layout RowLayout

	data []float64 // capacity·stride, one contiguous allocation

	tracer Tracer
	base   uint64
}

// NewKVBuffer allocates an empty key-value replay table for spec.
func NewKVBuffer(spec Spec) *KVBuffer {
	k := &KVBuffer{ring: ring{spec: spec}, layout: NewRowLayout(spec), base: 1 << 40}
	k.data = make([]float64, spec.Capacity*k.layout.Stride())
	return k
}

// ReorganizeFrom rebuilds the key-value table from a baseline per-agent
// buffer — the data-reshaping pass whose cost Figure 14 charges against the
// layout's sampling-phase savings. It returns the number of transitions
// copied.
func (k *KVBuffer) ReorganizeFrom(b *Buffer) int {
	if b.spec.NumAgents != k.spec.NumAgents || b.spec.ActDim != k.spec.ActDim {
		panic("replay: ReorganizeFrom spec mismatch")
	}
	for a, d := range b.spec.ObsDims {
		if d != k.spec.ObsDims[a] {
			panic(fmt.Sprintf("replay: ReorganizeFrom obs dim mismatch for agent %d", a))
		}
	}
	n := b.Len()
	if n > k.spec.Capacity {
		n = k.spec.Capacity
	}
	stride := k.layout.Stride()
	ad := k.spec.ActDim
	for idx := 0; idx < n; idx++ {
		row := k.data[idx*stride : (idx+1)*stride]
		for a := 0; a < k.spec.NumAgents; a++ {
			od := k.spec.ObsDims[a]
			copy(row[k.layout.obsOff[a]:k.layout.obsOff[a]+od], b.obs[a][idx*od:(idx+1)*od])
			copy(row[k.layout.actOff[a]:k.layout.actOff[a]+ad], b.act[a][idx*ad:(idx+1)*ad])
			row[k.layout.rewOff[a]] = b.rew[a][idx]
			copy(row[k.layout.nxtOff[a]:k.layout.nxtOff[a]+od], b.nextObs[a][idx*od:(idx+1)*od])
			row[k.layout.dnOff[a]] = b.done[a][idx]
		}
	}
	k.length = n
	k.next = b.next % k.spec.Capacity
	return n
}

// Add stores one environment step for all agents directly in interleaved
// form (the maintained-incrementally mode), tells the listeners the slot and
// returns it.
func (k *KVBuffer) Add(obs, act [][]float64, rew []float64, nextObs [][]float64, done []float64) int {
	idx := k.next
	stride := k.layout.Stride()
	k.layout.PackRow(k.data[idx*stride:(idx+1)*stride], obs, act, rew, nextObs, done)
	k.added(idx)
	return idx
}

// Layout returns the shared interleaved row layout.
func (k *KVBuffer) Layout() RowLayout { return k.layout }

// RowStride returns the float64 count of one interleaved row.
func (k *KVBuffer) RowStride() int { return k.layout.Stride() }

// SetTracer installs (or clears) the address tracer.
func (k *KVBuffer) SetTracer(t Tracer) { k.tracer = t }

// GatherRows copies the full interleaved rows at indices into dst — the
// pure O(m) inter-agent sampling loop of §IV-B2 (one contiguous copy per
// key, no per-agent handling). dst must hold at least
// len(indices)·RowStride() float64s.
func (k *KVBuffer) GatherRows(indices []int, dst []float64) {
	stride := k.layout.Stride()
	if len(dst) < len(indices)*stride {
		panic(fmt.Sprintf("replay: GatherRows dst %d floats for %d rows of %d", len(dst), len(indices), stride))
	}
	for rowN, idx := range indices {
		if idx < 0 || idx >= k.length {
			panic(fmt.Sprintf("replay: KVBuffer gather index %d outside [0,%d)", idx, k.length))
		}
		if k.tracer != nil {
			k.tracer.Access(k.base+uint64(idx*stride*8), stride*8)
		}
		copy(dst[rowN*stride:(rowN+1)*stride], k.data[idx*stride:(idx+1)*stride])
	}
}

// SplitRows reshapes count gathered interleaved rows (from GatherRows) into
// the per-agent batch tensors the networks consume — the "data reshaping"
// pass whose cost Figure 14 charges against the layout's sampling savings.
func (k *KVBuffer) SplitRows(rows []float64, count int, dst []*AgentBatch) {
	if len(dst) != k.spec.NumAgents {
		panic(fmt.Sprintf("replay: SplitRows got %d batches for %d agents", len(dst), k.spec.NumAgents))
	}
	k.layout.SplitRows(rows, count, dst)
}

// GatherAll copies the transitions at indices for every agent in a single
// loop over rows — the O(m) sampling path with the per-agent split fused in
// (the layout this repository's trainer uses), prefetching gatherLookahead
// rows ahead without tracing it, as Buffer.Gather does. dst must hold one
// AgentBatch per agent.
func (k *KVBuffer) GatherAll(indices []int, dst []*AgentBatch) {
	if len(dst) != k.spec.NumAgents {
		panic(fmt.Sprintf("replay: KVBuffer.GatherAll got %d batches for %d agents", len(dst), k.spec.NumAgents))
	}
	stride := k.layout.Stride()
	for rowN, idx := range indices {
		if idx < 0 || idx >= k.length {
			panic(fmt.Sprintf("replay: KVBuffer gather index %d outside [0,%d)", idx, k.length))
		}
		if next := ahead(indices, rowN, k.length); next >= 0 {
			rowmem.Prefetch(k.data[next*stride : (next+1)*stride])
		}
		row := k.data[idx*stride : (idx+1)*stride]
		if k.tracer != nil {
			k.tracer.Access(k.base+uint64(idx*stride*8), stride*8)
		}
		k.layout.SplitRowInto(dst, rowN, row)
	}
}
