// Package expstore is the persistent half of the experience service: an
// append-only, crash-recoverable segment store for KV transition rows. One
// row is one environment step — the key is the global time index, the
// value is every agent's transition packed contiguously (replay.RowLayout),
// preserving the paper's §IV-B2 data layout so the gather of a
// locality-aware draw streams sequential rows.
//
// The store keeps two views of the same experience:
//
//   - an in-memory Ring of the newest Capacity rows, which samplers gather
//     from (the hot path — one contiguous copy per row);
//   - pack files (segments) on disk holding the acknowledged batches as the
//     CRC-framed append frames the actors sent (batch.go), rotated at
//     SegmentRows rows and retired once they fall entirely outside the ring
//     window, which make the experience and the per-actor idempotency
//     cursors crash-recoverable: reopening after a kill drops at most one
//     unacknowledged batch torn at the tail of the active segment.
//
// Framing and torn-tail handling follow internal/resilience (MSNP) and the
// MARB replay serialization: explicit lengths, IEEE CRC32 trailers, and
// plausibility bounds before any allocation.
package expstore

import (
	"fmt"
	"runtime"

	"marlperf/internal/f64le"
	"marlperf/internal/replay"
	"marlperf/internal/rowmem"
)

// ringTraceBase is the synthetic base address Ring gathers report to the
// cache simulator; widely separated from the KVBuffer (1<<40) and baseline
// Buffer regions so traces never alias.
const ringTraceBase = 1 << 44

// Ring is a bounded in-memory row store addressed by insertion order: index
// 0 is the oldest retained row, Len()-1 the newest. It is the sampling
// substrate of both the local experience source and the networked store;
// consecutive indices occupy consecutive memory slots (modulo one wrap), so
// a locality plan's neighbor runs translate into sequential address
// streams.
//
// The rows live in a rowmem.Block, which for any ring of at least one huge
// page is memory the garbage collector does not see: Close releases it (a
// finalizer does for a ring that is dropped unclosed), and a slice of ring
// storage is valid only while the Ring is reachable and open.
//
// Ring is not safe for concurrent use; Store adds locking.
type Ring struct {
	layout replay.RowLayout
	mem    *rowmem.Block
	data   []float64 // mem.Floats(); nil once closed
	cap    int
	start  int // slot of insertion-order index 0
	length int
	total  uint64 // rows ever appended; Base() = total - length

	tracer replay.Tracer
}

// NewRing allocates an empty ring for spec, holding spec.Capacity rows.
func NewRing(spec replay.Spec) *Ring {
	layout := replay.NewRowLayout(spec)
	mem := rowmem.New(spec.Capacity * layout.Stride())
	return &Ring{
		layout: layout,
		mem:    mem,
		data:   mem.Floats(),
		cap:    spec.Capacity,
	}
}

// Close releases the ring's storage and empties it. It is idempotent; any
// later Append or gather panics. The caller must have stopped every
// reader first.
func (r *Ring) Close() {
	r.mem.Close()
	r.data, r.start, r.length = nil, 0, 0
}

// ArenaBytes returns how many bytes of row storage live outside the Go
// heap: all of it, or 0 for a ring smaller than rowmem.HugePage.
func (r *Ring) ArenaBytes() int64 { return r.mem.MappedBytes() }

// slot returns the storage slot of insertion-order index i, which must be
// inside [0, Len()): gathers check with badIndex first.
func (r *Ring) slot(i int) int {
	s := r.start + i
	if s >= r.cap {
		s -= r.cap
	}
	return s
}

// badIndex panics for index i outside [0, Len()) — which on a closed ring,
// whose length is zero, is every index.
//
//go:noinline
func (r *Ring) badIndex(i int) {
	if r.data == nil {
		panic(r.usedAfterClose())
	}
	panic(fmt.Sprintf("expstore: row index %d outside [0,%d)", i, r.length))
}

func (r *Ring) usedAfterClose() string {
	return fmt.Sprintf("expstore: Ring of %d rows used after Close", r.cap)
}

// gatherLookahead is how many rows ahead of the one being copied a gather
// starts loading: a draw's rows are scattered over the whole ring, so each
// is a run of cache misses the hardware prefetcher cannot predict, and four
// rows of copying is about the latency of one. Worth ≈ 6 % of a gather on
// huge pages and nothing on base pages, where the prefetch stops at the
// TLB miss (BenchmarkRingGather; 8 measured the same, 16 less).
const gatherLookahead = 4

// ahead returns the storage slot of the row gatherLookahead places after
// indices[n], for the gather to prefetch, or -1 at the end of the list. An
// index outside the ring is skipped here and reported when its turn comes.
func (r *Ring) ahead(indices []int, n int) int {
	if n += gatherLookahead; n < len(indices) && uint(indices[n]) < uint(r.length) {
		return r.slot(indices[n])
	}
	return -1
}

// Layout returns the shared interleaved row layout.
func (r *Ring) Layout() replay.RowLayout { return r.layout }

// Len returns the number of retained rows.
func (r *Ring) Len() int { return r.length }

// RowCount implements Provider.
func (r *Ring) RowCount() int { return r.length }

// Total returns the number of rows ever appended.
func (r *Ring) Total() uint64 { return r.total }

// Base returns the global sequence number of insertion-order index 0.
func (r *Ring) Base() uint64 { return r.total - uint64(r.length) }

// SetTracer installs (or clears) the address tracer.
func (r *Ring) SetTracer(t replay.Tracer) { r.tracer = t }

// Append copies one packed row into the ring, evicting the oldest row once
// full.
func (r *Ring) Append(row []float64) {
	stride := r.layout.Stride()
	if len(row) != stride {
		panic(fmt.Sprintf("expstore: Append row of %d floats, want %d", len(row), stride))
	}
	if r.data == nil {
		panic(r.usedAfterClose())
	}
	slot := (r.start + r.length) % r.cap
	copy(r.data[slot*stride:(slot+1)*stride], row)
	if r.length < r.cap {
		r.length++
	} else {
		r.start = (r.start + 1) % r.cap
	}
	r.total++
	runtime.KeepAlive(r) // the finalizer must not unmap data mid-copy
}

// AppendRow is the experience server's volatile write path: Append, for an
// interface.
func (r *Ring) AppendRow(row []float64) error {
	r.Append(row)
	return nil
}

// Flush completes the volatile write path; an in-memory ring has nothing
// to publish.
func (r *Ring) Flush() error { return nil }

// GatherPacked copies the rows at the given insertion-order indices into
// dst, emitting one address-trace access per row. dst must hold
// len(indices)·Stride() float64s.
func (r *Ring) GatherPacked(indices []int, dst []float64) {
	stride := r.layout.Stride()
	if len(dst) < len(indices)*stride {
		panic(fmt.Sprintf("expstore: GatherPacked dst %d floats for %d rows of %d", len(dst), len(indices), stride))
	}
	for rowN, idx := range indices {
		if uint(idx) >= uint(r.length) {
			r.badIndex(idx)
		}
		slot := r.slot(idx)
		if next := r.ahead(indices, rowN); next >= 0 {
			rowmem.Prefetch(r.data[next*stride : (next+1)*stride])
		}
		if r.tracer != nil {
			r.tracer.Access(ringTraceBase+uint64(slot*stride*8), stride*8)
		}
		copy(dst[rowN*stride:(rowN+1)*stride], r.data[slot*stride:(slot+1)*stride])
	}
	runtime.KeepAlive(r)
}

// GatherEncodeLE copies the rows at the given insertion-order indices
// straight into dst as little-endian float64 bytes — the experience
// server's zero-copy response path: one memmove per row from ring storage
// into the pooled response buffer, no intermediate []float64. dst must hold
// len(indices)·Stride()·8 bytes. Emits the same address-trace accesses as
// GatherPacked.
func (r *Ring) GatherEncodeLE(indices []int, dst []byte) {
	stride := r.layout.Stride()
	rowBytes := stride * 8
	if len(dst) < len(indices)*rowBytes {
		panic(fmt.Sprintf("expstore: GatherEncodeLE dst %d bytes for %d rows of %d bytes", len(dst), len(indices), rowBytes))
	}
	for rowN, idx := range indices {
		if uint(idx) >= uint(r.length) {
			r.badIndex(idx)
		}
		slot := r.slot(idx)
		if next := r.ahead(indices, rowN); next >= 0 {
			rowmem.Prefetch(r.data[next*stride : (next+1)*stride])
		}
		if r.tracer != nil {
			r.tracer.Access(ringTraceBase+uint64(slot*rowBytes), rowBytes)
		}
		f64le.Put(dst[rowN*rowBytes:(rowN+1)*rowBytes], r.data[slot*stride:(slot+1)*stride])
	}
	runtime.KeepAlive(r)
}

// SamplePacked selects n rows with plan seeded by seed and copies them into
// rows (n·Stride() floats), recording the chosen insertion-order indices in
// idx (length n): a local Source's whole draw in one call.
func (r *Ring) SamplePacked(plan replay.SamplePlan, n int, seed int64, idx []int, rows []float64) error {
	if len(idx) != n {
		return fmt.Errorf("expstore: SamplePacked idx len %d, want %d", len(idx), n)
	}
	if err := plan.FillIndices(idx, r.length, seed); err != nil {
		return err
	}
	r.GatherPacked(idx, rows)
	return nil
}
