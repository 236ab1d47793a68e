package rowmem

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

const hugeFloats = HugePage / 8

// mappingWorks reports whether this platform gives New an off-heap block.
func mappingWorks() bool {
	b := New(hugeFloats)
	defer b.Close()
	return b.MappedBytes() > 0
}

// The threshold is one huge page, decided by size alone.
func TestPlacementBySize(t *testing.T) {
	small := New(hugeFloats - 1)
	if small.MappedBytes() != 0 {
		t.Fatalf("a block one float short of a huge page is mapped (%d bytes)", small.MappedBytes())
	}
	if runtime.GOOS != "linux" {
		return
	}
	big := New(hugeFloats)
	defer big.Close()
	if big.MappedBytes() != HugePage {
		t.Fatalf("a block of exactly one huge page: MappedBytes %d", big.MappedBytes())
	}
}

// A mapped block and a heap block of the same size behave the same: zeroed,
// fully writable, idempotent Close, nil after Close. Only the mapped one is
// huge-page aligned and reports MappedBytes.
func TestBlockBothPaths(t *testing.T) {
	sizes := []int{1, 1000, hugeFloats, hugeFloats + 12345, 3 * hugeFloats}
	for _, offHeap := range []bool{false, true} {
		for _, n := range sizes {
			b := newBlock(n, offHeap)
			f := b.Floats()
			if len(f) != n || cap(f) != n {
				t.Fatalf("offHeap=%v n=%d: len %d cap %d", offHeap, n, len(f), cap(f))
			}
			for i, v := range f {
				if v != 0 {
					t.Fatalf("offHeap=%v n=%d: float %d is %v, want 0", offHeap, n, i, v)
				}
			}
			for i := range f {
				f[i] = float64(i)
			}
			if f[n-1] != float64(n-1) {
				t.Fatalf("offHeap=%v n=%d: last float reads %v", offHeap, n, f[n-1])
			}
			Prefetch(f[:min(n, 117)]) // a hint: must not move or fault
			Prefetch(f[n-1:])
			Prefetch(nil)
			if f[0] != 0 || f[n-1] != float64(n-1) {
				t.Fatal("Prefetch changed the block")
			}
			mapped := b.MappedBytes()
			if offHeap && mappingWorks() {
				if mapped != int64(n)*8 {
					t.Fatalf("n=%d: MappedBytes %d, want %d", n, mapped, n*8)
				}
				if addr := uintptr(unsafe.Pointer(&f[0])); addr%HugePage != 0 {
					t.Fatalf("n=%d: block at %#x is not huge-page aligned", n, addr)
				}
			} else if mapped != 0 {
				t.Fatalf("offHeap=%v n=%d: MappedBytes %d", offHeap, n, mapped)
			}
			b.Close()
			b.Close()
			if b.Floats() != nil || b.MappedBytes() != 0 {
				t.Fatalf("offHeap=%v n=%d: closed block still has %d floats, %d mapped bytes", offHeap, n, len(b.Floats()), b.MappedBytes())
			}
		}
	}
}

// mappingsOverlapping counts the lines of /proc/self/maps that overlap
// [lo, hi).
func mappingsOverlapping(t *testing.T, lo, hi uintptr) int {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var start, end uintptr
		if _, err := fmt.Sscanf(sc.Text(), "%x-%x", &start, &end); err != nil {
			t.Fatalf("unparsable maps line %q: %v", sc.Text(), err)
		}
		if start < hi && lo < end {
			n++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// Close unmaps at once; a block dropped without Close is unmapped by its
// finalizer, within two collections.
func TestMappingReleased(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	addrOf := func(b *Block) (lo, hi uintptr) {
		lo = uintptr(unsafe.Pointer(&b.region[0]))
		return lo, lo + uintptr(len(b.region))
	}

	closed := New(4 * hugeFloats)
	lo, hi := addrOf(closed)
	if mappingsOverlapping(t, lo, hi) == 0 {
		t.Fatal("a live block has no mapping")
	}
	closed.Close()
	if n := mappingsOverlapping(t, lo, hi); n != 0 {
		t.Fatalf("%d mappings left where a closed block was", n)
	}

	lo, hi = func() (uintptr, uintptr) {
		dropped := New(4 * hugeFloats)
		dropped.Floats()[0] = 1
		return addrOf(dropped)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for mappingsOverlapping(t, lo, hi) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the finalizer never unmapped a dropped block")
		}
		runtime.GC()
		runtime.GC()
		time.Sleep(time.Millisecond) // the finalizer goroutine runs after the collection
	}
}

func TestAnonHugePageBytes(t *testing.T) {
	before := AnonHugePageBytes()
	if before < 0 {
		t.Fatalf("AnonHugePageBytes = %d", before)
	}
	if runtime.GOOS != "linux" {
		if before != 0 {
			t.Fatalf("AnonHugePageBytes = %d off Linux", before)
		}
		return
	}
	b := New(8 * hugeFloats)
	defer b.Close()
	f := b.Floats()
	for i := 0; i < len(f); i += 512 {
		f[i] = 1
	}
	// Whether the advice takes is the host's decision; that the figure is
	// a whole number of huge pages is not.
	after := AnonHugePageBytes()
	if after%HugePage != 0 {
		t.Fatalf("AnonHugePageBytes = %d, not a multiple of the huge page", after)
	}
	t.Logf("AnonHugePages %d -> %d bytes after touching a %d-byte block", before, after, b.MappedBytes())
}
