package expstore

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"marlperf/internal/f64le"
	"marlperf/internal/replay"
	"marlperf/internal/rowmem"
	"marlperf/internal/simcache"
)

// naiveGather is the gather as it was before the lookahead prefetch: slot by
// modulo, one copy per row. The tests compare GatherPacked and
// GatherEncodeLE with it, and BenchmarkRingGather times it as the
// no-prefetch column.
func naiveGather(r *Ring, indices []int, dst []float64) {
	stride := r.layout.Stride()
	for rowN, idx := range indices {
		slot := (r.start + idx) % r.cap
		copy(dst[rowN*stride:(rowN+1)*stride], r.data[slot*stride:(slot+1)*stride])
	}
}

func fillRandom(r *Ring, rows int, rng *rand.Rand) {
	row := make([]float64, r.layout.Stride())
	for n := 0; n < rows; n++ {
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		row[0] = math.NaN() // bit-exactness must survive non-finite values
		r.Append(row)
	}
}

// Both gathers must return exactly what the naive loop returns: over an
// unwrapped and a wrapped ring, on the heap and in a mapping, for index
// lists shorter than, equal to and longer than the lookahead, and with the
// first and last storage slots among the rows prefetched.
func TestPrefetchedGatherMatchesNaive(t *testing.T) {
	// 2 agents × (3+4 obs) rows are 144 bytes: 16384 of them are 2.25 MiB,
	// enough for an off-heap ring.
	for _, capacity := range []int{64, 16384} {
		for _, appended := range []int{capacity / 2, capacity, capacity + capacity/3} {
			ring := NewRing(testSpec(capacity))
			if offHeap := ring.ArenaBytes() > 0; offHeap != (capacity == 16384) && runtime.GOOS == "linux" {
				t.Fatalf("capacity %d: ArenaBytes %d", capacity, ring.ArenaBytes())
			}
			rng := rand.New(rand.NewSource(int64(capacity + appended)))
			fillRandom(ring, appended, rng)
			stride := ring.layout.Stride()
			n := ring.Len()
			// Insertion-order indices of storage slots 0 and cap-1.
			slot0 := (ring.cap - ring.start) % ring.cap
			slotLast := (ring.cap - 1 - ring.start + ring.cap) % ring.cap
			lists := [][]int{
				{},
				{n - 1},
				{0, n - 1, 0},
				make([]int, gatherLookahead),
				make([]int, gatherLookahead+1),
				make([]int, 257),
			}
			for _, idx := range lists[3:] {
				for i := range idx {
					idx[i] = rng.Intn(n)
				}
			}
			for _, edge := range []int{slot0, slotLast} {
				if edge < n {
					// Once as a row copied, once as the last row prefetched.
					lists = append(lists, []int{edge, 0, 0, 0, edge}, []int{0, 0, 0, 0, 0, 0, edge})
				}
			}
			for _, idx := range lists {
				want := make([]float64, len(idx)*stride)
				naiveGather(ring, idx, want)
				got := make([]float64, len(idx)*stride)
				ring.GatherPacked(idx, got)
				encoded := make([]byte, len(idx)*stride*8)
				ring.GatherEncodeLE(idx, encoded)
				decoded := make([]float64, len(idx)*stride)
				f64le.Get(decoded, encoded)
				for i := range want {
					if w := math.Float64bits(want[i]); math.Float64bits(got[i]) != w || math.Float64bits(decoded[i]) != w {
						t.Fatalf("capacity %d, %d appended, %d indices: float %d: packed %x, encoded %x, naive %x",
							capacity, appended, len(idx), i, math.Float64bits(got[i]), math.Float64bits(decoded[i]), w)
					}
				}
			}
			ring.Close()
		}
	}
}

// An index outside the ring panics when its turn comes, never earlier as a
// side effect of being looked ahead at, and never as a fault.
func TestGatherBadIndexPanicsAtItsTurn(t *testing.T) {
	ring := NewRing(testSpec(16384))
	defer ring.Close()
	fillRandom(ring, 100, rand.New(rand.NewSource(1)))
	stride := ring.layout.Stride()
	dst := make([]float64, 8*stride)
	for _, bad := range []int{-1, 100, 1 << 40} {
		idx := []int{1, 2, 3, 4, 5, bad, 6, 7}
		msg := panicMessage(func() { ring.GatherPacked(idx, dst) })
		if want := fmt.Sprintf("row index %d outside [0,100)", bad); !strings.Contains(msg, want) {
			t.Fatalf("bad index %d: panic %q, want it to contain %q", bad, msg, want)
		}
		want := make([]float64, 5*stride)
		naiveGather(ring, idx[:5], want)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("bad index %d: the rows before it were not gathered", bad)
			}
		}
	}
}

func panicMessage(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return
}

// A closed ring is empty and says so: every use panics with a message that
// names the mistake, whether the storage was a mapping or a heap slice, and
// Close may be repeated.
func TestRingUseAfterClosePanics(t *testing.T) {
	for _, capacity := range []int{64, 16384} {
		ring := NewRing(testSpec(capacity))
		fillRandom(ring, 10, rand.New(rand.NewSource(2)))
		stride := ring.layout.Stride()
		ring.Close()
		ring.Close()
		if ring.Len() != 0 || ring.ArenaBytes() != 0 {
			t.Fatalf("closed ring: Len %d, ArenaBytes %d", ring.Len(), ring.ArenaBytes())
		}
		uses := map[string]func(){
			"Append":         func() { ring.Append(make([]float64, stride)) },
			"GatherPacked":   func() { ring.GatherPacked([]int{0}, make([]float64, stride)) },
			"GatherEncodeLE": func() { ring.GatherEncodeLE([]int{0}, make([]byte, stride*8)) },
			"SamplePacked": func() {
				_ = ring.SamplePacked(replay.SamplePlan{Strategy: replay.PlanUniform}, 1, 1, make([]int, 1), make([]float64, stride))
			},
		}
		for name, use := range uses {
			msg := panicMessage(use)
			if name == "SamplePacked" {
				// The plan refuses an empty ring before any row is touched.
				if msg != "<nil>" && !strings.Contains(msg, "used after Close") {
					t.Fatalf("capacity %d: %s after Close panicked with %q", capacity, name, msg)
				}
				continue
			}
			if want := fmt.Sprintf("Ring of %d rows used after Close", capacity); !strings.Contains(msg, want) {
				t.Fatalf("capacity %d: %s after Close: panic %q, want it to contain %q", capacity, name, msg, want)
			}
		}
	}
}

// Store.Close releases the ring after the active segment, and a closed
// store's sample panics in the ring instead of faulting.
func TestStoreCloseClosesRing(t *testing.T) {
	s, err := Open(t.TempDir(), testSpec(16384), Options{SegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, s, 0, 20)
	if runtime.GOOS == "linux" && s.ArenaBytes() == 0 {
		t.Fatal("a 2.25 MiB ring is on the heap")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if s.ArenaBytes() != 0 || s.RowCount() != 0 {
		t.Fatalf("closed store: ArenaBytes %d, RowCount %d", s.ArenaBytes(), s.RowCount())
	}
	msg := panicMessage(func() { s.GatherEncodeLE([]int{0}, make([]byte, s.Layout().Stride()*8)) })
	if !strings.Contains(msg, "used after Close") {
		t.Fatalf("gather from a closed store: panic %q", msg)
	}
}

// A 64 MiB ring is off the heap: filling it moves HeapAlloc by less than
// 1 MiB and resident memory by about its size, and Close gives the
// resident memory back.
func TestRingIsOffHeap(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/status")
	}
	spec := testSpec(0)
	spec.Capacity = (64 << 20) / (replay.NewRowLayout(testSpec(1)).Stride() * 8)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rssBefore := residentBytes(t)

	ring := NewRing(spec)
	row := make([]float64, ring.layout.Stride())
	for i := range row {
		row[i] = float64(i + 1)
	}
	for n := 0; n < spec.Capacity; n++ {
		ring.Append(row)
	}
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("a 64 MiB ring moved HeapAlloc by %d bytes", grew)
	}
	if ring.ArenaBytes() < 63<<20 {
		t.Fatalf("ArenaBytes = %d", ring.ArenaBytes())
	}
	if grew := residentBytes(t) - rssBefore; grew < 56<<20 {
		t.Fatalf("filling a 64 MiB ring moved RSS by only %d bytes", grew)
	}
	ring.Close()
	if left := residentBytes(t) - rssBefore; left > 8<<20 {
		t.Fatalf("RSS is %d bytes above the baseline after Close", left)
	}
}

// residentBytes reads VmRSS from /proc/self/status.
func residentBytes(t *testing.T) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb int64
		if n, _ := fmt.Sscanf(line, "VmRSS: %d kB", &kb); n == 1 {
			return kb << 10
		}
	}
	t.Fatal("no VmRSS line in /proc/self/status")
	return 0
}

// tlbModel is simcache's dTLB (a Cache whose line is the page) at one page
// size, fed the gather's address trace through replay.Tracer.
type tlbModel struct {
	tlb  *simcache.Cache
	page uint64
}

// A second-level dTLB of 2048 entries, 8 ways, at either page size.
func newTLBModel(pageBytes int) *tlbModel {
	return &tlbModel{
		tlb:  simcache.NewCache(simcache.CacheConfig{Name: "dTLB", SizeBytes: 2048 * pageBytes, Ways: 8, LineSize: pageBytes}),
		page: uint64(pageBytes),
	}
}

func (m *tlbModel) Access(addr uint64, size int) {
	for p := addr / m.page; p <= (addr+uint64(size)-1)/m.page; p++ {
		m.tlb.Access(p * m.page)
	}
}

// BenchmarkRingGather is the floor under expstore.gather_rows_per_s: uniform
// 1024-row draws from a ring the size of fabric-sample's (262 144 rows of
// the benchmark's 936-byte predator-prey row, 245 MB), on base pages (a heap
// slice: the runtime does not ask for huge pages) and on the rowmem mapping,
// each gathered by the naive loop and by GatherPacked. It reports ns/row
// for both, how much of the process is on huge pages, and what simcache's
// dTLB model says about the same index trace at that page size.
func BenchmarkRingGather(b *testing.B) {
	const (
		rows  = 262144
		batch = 1024
	)
	spec := replay.Spec{NumAgents: 3, ObsDims: []int{16, 16, 16}, ActDim: 5, Capacity: rows}
	layout := replay.NewRowLayout(spec)
	stride := layout.Stride()
	draws := make([][]int, 64)
	rng := rand.New(rand.NewSource(3))
	for d := range draws {
		draws[d] = make([]int, batch)
		for i := range draws[d] {
			draws[d][i] = rng.Intn(rows)
		}
	}
	dst := make([]float64, batch*stride)

	pages := []struct {
		name  string
		bytes int
		ring  func() *Ring
	}{
		{"4KiB", 4 << 10, func() *Ring {
			mem := make([]float64, rows*stride)
			return &Ring{layout: layout, mem: rowmem.New(0), data: mem, cap: rows}
		}},
		{"2MiB", 2 << 20, func() *Ring { return NewRing(spec) }},
	}
	for _, pg := range pages {
		ring := pg.ring()
		fillRandom(ring, rows, rng)

		model := newTLBModel(pg.bytes)
		ring.SetTracer(model)
		for _, idx := range draws {
			ring.GatherPacked(idx, dst)
		}
		ring.SetTracer(nil)
		missRate := float64(model.tlb.Misses) / float64(model.tlb.Hits+model.tlb.Misses)
		huge := float64(rowmem.AnonHugePageBytes()) / (1 << 20)

		// The two gathers take turns, each on its own clock and on its own
		// fresh draw: this host's speed drifts by tens of percent within
		// seconds, so a cell measured after the other would measure the
		// drift, and a draw gathered twice would be served from cache.
		b.Run("pages="+pg.name, func(b *testing.B) {
			var naive, prefetch time.Duration
			idx := make([]int, batch)
			redraw := func() {
				for i := range idx {
					idx[i] = rng.Intn(rows)
				}
			}
			for i := 0; i < b.N; i++ {
				redraw()
				t0 := time.Now()
				naiveGather(ring, idx, dst)
				naive += time.Since(t0)
				redraw()
				t0 = time.Now()
				ring.GatherPacked(idx, dst)
				prefetch += time.Since(t0)
			}
			perRow := float64(b.N * batch)
			b.ReportMetric(float64(naive.Nanoseconds())/perRow, "naive-ns/row")
			b.ReportMetric(float64(prefetch.Nanoseconds())/perRow, "prefetch-ns/row")
			b.ReportMetric(huge, "hugepage-MB")
			b.ReportMetric(missRate, "model-dtlb-miss/page")
		})
		ring.Close()
		runtime.GC()
	}
}
