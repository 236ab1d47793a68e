// Package rowmem owns the memory behind the experience service's row
// store. A sampler's gather is a stream of irregular row reads, and what it
// costs is decided below the program: how many pages the rows span (dTLB
// reach) and whether the next row's lines are already on their way. A block
// of at least one huge page therefore lives outside the Go heap, in an
// anonymous mapping aligned to HugePage and, on Linux, advised
// MADV_HUGEPAGE; a smaller block, and every block on a platform without
// mmap, is a plain heap slice. Which one a caller gets depends on the
// block's size and the platform only.
//
// Off the heap the rows also stop counting toward the collector's pacing:
// with GOGC=100 a heap holding 254 MB of rows lets request garbage pile up
// to another 254 MB before a cycle runs, so the process sat at twice its
// row bytes; with the rows mapped here the heap is a few MB and resident
// memory is the rows.
//
// Small blocks stay on the heap for a measured reason, not a guessed one:
// mapping every per-field array of replay.Buffer took `go test
// ./internal/replay` from 0.4 s to 119 s, because each tiny block faults
// and zeroes a whole 2 MiB page.
package rowmem

import (
	"runtime"
	"unsafe"
)

// HugePage is the x86-64 and arm64 (4 KiB granule) transparent-huge-page
// size: the alignment of every mapped block and the size below which a
// block is a heap slice.
const HugePage = 2 << 20

// Block is a zeroed run of float64s. Its memory may be invisible to the
// garbage collector, so a slice of Floats keeps nothing alive: it is valid
// only while the Block is reachable and not closed.
type Block struct {
	floats []float64
	region []byte // the whole mapping; nil for a heap block and after Close
}

// New returns a zeroed block of n float64s.
func New(n int) *Block { return newBlock(n, n*8 >= HugePage) }

// newBlock is New with the placement decided by the caller, so tests can
// run one size down both paths. A mapping the platform refuses falls back
// to the heap.
func newBlock(n int, offHeap bool) *Block {
	if offHeap {
		// One spare huge page: mmap aligns to the base page only, and the
		// unused ends are never touched, so they cost address space, not
		// memory.
		if region, err := mapRegion(n*8 + HugePage); err == nil {
			skip := -int(uintptr(unsafe.Pointer(&region[0]))) & (HugePage - 1)
			rows := region[skip : skip+n*8 : skip+n*8]
			adviseHuge(rows)
			b := &Block{floats: unsafe.Slice((*float64)(unsafe.Pointer(&rows[0])), n), region: region}
			// The backstop for owners that never call Close.
			runtime.SetFinalizer(b, (*Block).Close)
			return b
		}
	}
	return &Block{floats: make([]float64, n)}
}

// Floats returns the block's storage, nil after Close.
func (b *Block) Floats() []float64 { return b.floats }

// MappedBytes returns how many bytes of the block live outside the Go heap:
// its full size, or 0 for a heap block and after Close.
func (b *Block) MappedBytes() int64 {
	if b.region == nil {
		return 0
	}
	return int64(len(b.floats)) * 8
}

// Close releases the block. It is idempotent, and must not run concurrently
// with any use of Floats: reading a closed mapping faults.
func (b *Block) Close() {
	region := b.region
	b.floats, b.region = nil, nil
	if region == nil {
		return
	}
	runtime.SetFinalizer(b, nil)
	if err := unmapRegion(region); err != nil {
		// Unmapping exactly what mmap returned cannot fail.
		panic("rowmem: " + err.Error())
	}
}
