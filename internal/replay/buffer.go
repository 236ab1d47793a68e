// Package replay implements the experience replay storage and the sampling
// strategies the paper studies: baseline uniform mini-batch sampling,
// cache-locality-aware neighbor sampling (§IV-A), proportional prioritized
// replay (PER), information-prioritized locality-aware sampling (§IV-B1),
// and the key-value transition data-layout reorganization (§IV-B2).
//
// All storage is flat float64 so the gather loops have the same memory
// behaviour the paper profiles; every buffer can emit a synthetic address
// trace for the cache simulator in internal/simcache.
package replay

import (
	"fmt"

	"marlperf/internal/rowmem"
	"marlperf/internal/tensor"
)

// Tracer receives the logical memory accesses performed by the gather
// loops. Implemented by internal/simcache; nil tracers cost one branch.
type Tracer interface {
	Access(addr uint64, size int)
}

// Spec describes the shape of the stored transitions.
type Spec struct {
	NumAgents int
	ObsDims   []int // observation width per agent
	ActDim    int   // action-vector width (5 one-hot/probability entries)
	Capacity  int   // max stored transitions (paper: 1 million)
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	if s.NumAgents < 1 {
		return fmt.Errorf("replay: NumAgents = %d, want ≥1", s.NumAgents)
	}
	if len(s.ObsDims) != s.NumAgents {
		return fmt.Errorf("replay: %d ObsDims for %d agents", len(s.ObsDims), s.NumAgents)
	}
	for i, d := range s.ObsDims {
		if d < 1 {
			return fmt.Errorf("replay: ObsDims[%d] = %d, want ≥1", i, d)
		}
	}
	if s.ActDim < 1 {
		return fmt.Errorf("replay: ActDim = %d, want ≥1", s.ActDim)
	}
	if s.Capacity < 1 {
		return fmt.Errorf("replay: Capacity = %d, want ≥1", s.Capacity)
	}
	return nil
}

// AgentBatch holds one agent's gathered mini-batch, ready for the networks.
// Every gather in this package and the row splits write Obs, Act and NextObs
// row by row through their pitch, so they may be column views of wider
// matrices (the trainer's are its critics' joint inputs); Rew and Done are
// dense, or both nil: then every gather skips them, reading neither the
// rewards nor the done flags (an update reads only the updated agent's).
type AgentBatch struct {
	Obs     *tensor.Matrix // batch×obsDim
	Act     *tensor.Matrix // batch×actDim
	Rew     *tensor.Matrix // batch×1
	NextObs *tensor.Matrix // batch×obsDim
	Done    *tensor.Matrix // batch×1
}

// NewAgentBatch allocates a dense batch for an agent with the given obs
// width.
func NewAgentBatch(batch, obsDim, actDim int) *AgentBatch {
	return &AgentBatch{
		Obs:     tensor.New(batch, obsDim),
		Act:     tensor.New(batch, actDim),
		Rew:     tensor.New(batch, 1),
		NextObs: tensor.New(batch, obsDim),
		Done:    tensor.New(batch, 1),
	}
}

// Buffer is the baseline multi-agent replay buffer: each agent's transition
// fields live in their own separate allocations ("distant memory
// locations"), so a mini-batch gather walks N_agents × batch scattered rows
// — the O(N·m) access pattern of Figure 5.
//
// Indices are aligned across agents: index t holds every agent's view of
// the same environment step.
type Buffer struct {
	ring

	obs     [][]float64 // [agent][capacity·obsDim]
	act     [][]float64 // [agent][capacity·actDim]
	rew     [][]float64 // [agent][capacity]
	nextObs [][]float64 // [agent][capacity·obsDim]
	done    [][]float64 // [agent][capacity]

	tracer    Tracer
	baseAddrs []uint64 // synthetic base address per (agent, field) region
}

// Field identifiers for the synthetic address regions.
const (
	regionObs = iota
	regionAct
	regionRew
	regionNextObs
	regionDone
	numRegions
)

// NewBuffer allocates a baseline per-agent replay buffer.
func NewBuffer(spec Spec) *Buffer {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	b := &Buffer{ring: ring{spec: spec}}
	b.obs = make([][]float64, spec.NumAgents)
	b.act = make([][]float64, spec.NumAgents)
	b.rew = make([][]float64, spec.NumAgents)
	b.nextObs = make([][]float64, spec.NumAgents)
	b.done = make([][]float64, spec.NumAgents)
	for a := 0; a < spec.NumAgents; a++ {
		b.obs[a] = make([]float64, spec.Capacity*spec.ObsDims[a])
		b.act[a] = make([]float64, spec.Capacity*spec.ActDim)
		b.rew[a] = make([]float64, spec.Capacity)
		b.nextObs[a] = make([]float64, spec.Capacity*spec.ObsDims[a])
		b.done[a] = make([]float64, spec.Capacity)
	}
	// Each (agent, field) region gets a widely separated synthetic base so
	// the cache simulator sees the "distant allocations" of the baseline
	// layout. 1 GiB spacing keeps regions in distinct page/line ranges.
	b.baseAddrs = make([]uint64, spec.NumAgents*numRegions)
	for i := range b.baseAddrs {
		b.baseAddrs[i] = uint64(i+1) << 30
	}
	return b
}

// SetTracer installs (or clears, with nil) the address tracer.
func (b *Buffer) SetTracer(t Tracer) { b.tracer = t }

// Add stores one environment step for all agents and returns the slot index
// it was written to. act rows are the ActDim-wide action vectors.
func (b *Buffer) Add(obs, act [][]float64, rew []float64, nextObs [][]float64, done []float64) int {
	n := b.spec.NumAgents
	if len(obs) != n || len(act) != n || len(rew) != n || len(nextObs) != n || len(done) != n {
		panic(fmt.Sprintf("replay: Add got %d/%d/%d/%d/%d rows, want %d each", len(obs), len(act), len(rew), len(nextObs), len(done), n))
	}
	idx := b.next
	for a := 0; a < n; a++ {
		od := b.spec.ObsDims[a]
		if len(obs[a]) != od || len(nextObs[a]) != od {
			panic(fmt.Sprintf("replay: Add agent %d obs width %d/%d, want %d", a, len(obs[a]), len(nextObs[a]), od))
		}
		if len(act[a]) != b.spec.ActDim {
			panic(fmt.Sprintf("replay: Add agent %d act width %d, want %d", a, len(act[a]), b.spec.ActDim))
		}
		copy(b.obs[a][idx*od:(idx+1)*od], obs[a])
		copy(b.act[a][idx*b.spec.ActDim:(idx+1)*b.spec.ActDim], act[a])
		b.rew[a][idx] = rew[a]
		copy(b.nextObs[a][idx*od:(idx+1)*od], nextObs[a])
		b.done[a][idx] = done[a]
	}
	b.added(idx)
	return idx
}

// regionBase returns the synthetic base address of agent a's field region.
func (b *Buffer) regionBase(a, field int) uint64 {
	return b.baseAddrs[a*numRegions+field]
}

// trace emits one logical access if a tracer is installed.
func (b *Buffer) trace(addr uint64, size int) {
	if b.tracer != nil {
		b.tracer.Access(addr, size)
	}
}

// gatherLookahead is how many rows ahead of the one being copied a gather
// starts loading, as expstore.Ring's gathers do: the rows of a draw are
// scattered over the whole buffer, so each is a run of cache misses the
// hardware prefetcher cannot predict.
const gatherLookahead = 8

// ahead returns indices[n+gatherLookahead], for a gather over a store of
// length rows to prefetch, or -1 past the end of the list. An index outside
// the store is skipped here and reported when its turn comes.
func ahead(indices []int, n, length int) int {
	if n += gatherLookahead; n < len(indices) && uint(indices[n]) < uint(length) {
		return indices[n]
	}
	return -1
}

// Gather copies the transitions at the given indices from agent a's buffers
// into dst. This is the per-agent leg of the paper's O(N·m) baseline
// sampling loop; each index touches five scattered rows (three when dst's
// Rew and Done are nil), which the loop starts loading gatherLookahead
// indices ahead. Prefetches are not logical accesses: the tracer sees the
// reads of each row, in field order, and nothing else.
func (b *Buffer) Gather(a int, indices []int, dst *AgentBatch) {
	od := b.spec.ObsDims[a]
	ad := b.spec.ActDim
	if dst.Obs.Cols != od || dst.Act.Cols != ad {
		panic(fmt.Sprintf("replay: Gather dst widths %d/%d, want %d/%d", dst.Obs.Cols, dst.Act.Cols, od, ad))
	}
	if len(indices) > dst.Obs.Rows {
		panic(fmt.Sprintf("replay: Gather %d indices into batch of %d", len(indices), dst.Obs.Rows))
	}
	obs, act, rew, nextObs, done := b.obs[a], b.act[a], b.rew[a], b.nextObs[a], b.done[a]
	scalars := dst.Rew != nil
	for row, idx := range indices {
		if idx < 0 || idx >= b.length {
			panic(fmt.Sprintf("replay: Gather index %d outside [0,%d)", idx, b.length))
		}
		if next := ahead(indices, row, b.length); next >= 0 {
			rowmem.Prefetch(obs[next*od : (next+1)*od])
			rowmem.Prefetch(act[next*ad : (next+1)*ad])
			rowmem.Prefetch(nextObs[next*od : (next+1)*od])
			if scalars {
				rowmem.Prefetch(rew[next : next+1])
				rowmem.Prefetch(done[next : next+1])
			}
		}
		copy(dst.Obs.Row(row), obs[idx*od:(idx+1)*od])
		copy(dst.Act.Row(row), act[idx*ad:(idx+1)*ad])
		copy(dst.NextObs.Row(row), nextObs[idx*od:(idx+1)*od])
		if scalars {
			dst.Rew.Data[row] = rew[idx]
			dst.Done.Data[row] = done[idx]
		}
		if b.tracer != nil {
			b.trace(b.regionBase(a, regionObs)+uint64(idx*od*8), od*8)
			b.trace(b.regionBase(a, regionAct)+uint64(idx*ad*8), ad*8)
			if scalars {
				b.trace(b.regionBase(a, regionRew)+uint64(idx*8), 8)
			}
			b.trace(b.regionBase(a, regionNextObs)+uint64(idx*od*8), od*8)
			if scalars {
				b.trace(b.regionBase(a, regionDone)+uint64(idx*8), 8)
			}
		}
	}
}

// GatherAll runs Gather for every agent with a shared index array — the
// full mini-batch sampling inner loop of Figure 5. dst must hold one
// AgentBatch per agent.
func (b *Buffer) GatherAll(indices []int, dst []*AgentBatch) {
	if len(dst) != b.spec.NumAgents {
		panic(fmt.Sprintf("replay: GatherAll got %d batches for %d agents", len(dst), b.spec.NumAgents))
	}
	for a := 0; a < b.spec.NumAgents; a++ {
		b.Gather(a, indices, dst[a])
	}
}
