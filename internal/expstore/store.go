package expstore

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"marlperf/internal/replay"
)

// DefaultSegmentRows is the rotation threshold when Options.SegmentRows is
// zero: large enough to amortize per-file cost, small enough that a torn
// tail loses at most one flush interval of one segment.
const DefaultSegmentRows = 4096

// Options tune a Store.
type Options struct {
	// SegmentRows is the record count at which the active segment is sealed
	// and a new one started. Defaults to DefaultSegmentRows.
	SegmentRows int
}

// segMeta describes one sealed, fully-verified segment on disk.
type segMeta struct {
	baseSeq uint64
	rows    int
	path    string
}

// Store is the crash-recoverable experience store: every appended row goes
// both to an in-memory Ring (the sampling substrate) and to the active
// CRC-framed segment file. Segments rotate at SegmentRows records and are
// deleted once every row they hold has been evicted from the ring window,
// bounding disk use at roughly Capacity rows plus one segment.
//
// Durability contract: Flush pushes buffered frames to the OS, so rows
// appended before a Flush survive a SIGKILL of the process. On reopen the
// newest segment may end in a torn frame from writes after the last flush;
// recovery truncates it to the last intact record and training resumes.
// Call Sync to additionally fsync for whole-machine crash safety.
//
// All methods are safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	dir    string
	spec   replay.Spec
	layout replay.RowLayout
	opts   Options

	ring   *Ring
	sealed []segMeta

	active     *os.File
	activeBuf  *bufio.Writer
	activeBase uint64
	activeRows int

	nextSeq uint64 // global insertion index of the next appended row

	encScratch []byte
}

// Open loads (or creates) a store in dir for spec. Existing segments are
// verified and replayed to rebuild the ring: interior segments must be fully
// intact; the newest segment may carry a torn tail, which is truncated away.
func Open(dir string, spec replay.Spec, opts Options) (*Store, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.SegmentRows <= 0 {
		opts.SegmentRows = DefaultSegmentRows
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("expstore: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:    dir,
		spec:   spec,
		layout: replay.NewRowLayout(spec),
		opts:   opts,
		ring:   NewRing(spec),
	}
	if err := s.recover(); err != nil {
		s.ring.Close()
		return nil, err
	}
	return s, nil
}

// recover scans the segment chain, verifies it, truncates a torn tail on
// the newest segment, replays the retained window into the ring, and leaves
// the store ready to append at nextSeq.
func (s *Store) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("expstore: reading %s: %w", s.dir, err)
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".xpk") {
			paths = append(paths, filepath.Join(s.dir, name))
		}
	}
	sort.Strings(paths) // 12-digit zero-padded base: lexical = append order

	type loaded struct {
		meta segMeta
		rows []float64
		n    int
	}
	var segs []loaded
	for i, path := range paths {
		last := i == len(paths)-1
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("expstore: reading segment: %w", err)
		}
		base, rows, n, goodOff, err := parseSegment(data, s.layout, last)
		if errors.Is(err, errTornHeader) {
			// The newest segment's header never hit disk: the crash landed
			// between file creation and the first flush. Nothing in it was
			// ever durable; drop the file and resume from the chain so far.
			if rmErr := os.Remove(path); rmErr != nil {
				return fmt.Errorf("expstore: dropping torn segment: %w", rmErr)
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("expstore: %s: %w", filepath.Base(path), err)
		}
		if len(segs) > 0 {
			prev := segs[len(segs)-1].meta
			if base != prev.baseSeq+uint64(prev.rows) {
				return fmt.Errorf("expstore: segment chain gap: %s starts at seq %d, previous ends at %d",
					filepath.Base(path), base, prev.baseSeq+uint64(prev.rows))
			}
		}
		if last && goodOff < len(data) {
			// Torn tail after the last intact record: truncate so the next
			// append continues a clean frame boundary.
			if err := os.Truncate(path, int64(goodOff)); err != nil {
				return fmt.Errorf("expstore: truncating torn tail of %s: %w", filepath.Base(path), err)
			}
		}
		segs = append(segs, loaded{meta: segMeta{baseSeq: base, rows: n, path: path}, rows: rows, n: n})
	}

	if len(segs) == 0 {
		return nil
	}
	tail := segs[len(segs)-1]
	s.nextSeq = tail.meta.baseSeq + uint64(tail.meta.rows)

	// Replay the newest Capacity rows into the ring, oldest first. Seed the
	// ring's total so Base() reflects global sequence numbers, then append
	// the retained window.
	windowStart := uint64(0)
	if s.nextSeq > uint64(s.spec.Capacity) {
		windowStart = s.nextSeq - uint64(s.spec.Capacity)
	}
	s.ring.total = windowStart
	stride := s.layout.Stride()
	for _, seg := range segs {
		for k := 0; k < seg.n; k++ {
			seq := seg.meta.baseSeq + uint64(k)
			if seq < windowStart {
				continue
			}
			s.ring.Append(seg.rows[k*stride : (k+1)*stride])
		}
	}

	// Reopen the newest segment for appending if it still has room;
	// otherwise it is sealed and the next append starts a fresh one.
	if tail.meta.rows < s.opts.SegmentRows {
		f, err := os.OpenFile(tail.meta.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("expstore: reopening active segment: %w", err)
		}
		s.active = f
		s.activeBuf = bufio.NewWriter(f)
		s.activeBase = tail.meta.baseSeq
		s.activeRows = tail.meta.rows
		segs = segs[:len(segs)-1]
	}
	for _, seg := range segs {
		s.sealed = append(s.sealed, seg.meta)
	}
	s.retireLocked()
	return nil
}

// Layout returns the shared interleaved row layout.
func (s *Store) Layout() replay.RowLayout { return s.layout }

// RowCount returns the number of sampleable (ring-resident) rows.
func (s *Store) RowCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Len()
}

// Total returns the number of rows ever appended across all incarnations.
func (s *Store) Total() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextSeq
}

// SetTracer installs (or clears) the ring's address tracer.
func (s *Store) SetTracer(t replay.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ring.SetTracer(t)
}

// AppendRow appends one packed row (layout.Stride() floats) to the ring and
// the active segment, rotating and retiring segments as needed. The row is
// durable against process kill only after the next Flush.
func (s *Store) AppendRow(row []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(row)
}

func (s *Store) appendLocked(row []float64) error {
	if s.active == nil {
		if err := s.openSegmentLocked(); err != nil {
			return err
		}
	}
	s.encScratch = appendRecord(s.encScratch[:0], s.layout, s.nextSeq, row)
	if _, err := s.activeBuf.Write(s.encScratch); err != nil {
		return fmt.Errorf("expstore: appending record %d: %w", s.nextSeq, err)
	}
	s.ring.Append(row)
	s.nextSeq++
	s.activeRows++
	if s.activeRows >= s.opts.SegmentRows {
		if err := s.sealLocked(); err != nil {
			return err
		}
	}
	return nil
}

// openSegmentLocked starts a fresh segment at nextSeq.
func (s *Store) openSegmentLocked() error {
	path := filepath.Join(s.dir, fmt.Sprintf(segPattern, s.nextSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("expstore: creating segment: %w", err)
	}
	s.active = f
	s.activeBuf = bufio.NewWriter(f)
	s.activeBase = s.nextSeq
	s.activeRows = 0
	s.encScratch = appendSegmentHeader(s.encScratch[:0], s.layout, s.nextSeq)
	if _, err := s.activeBuf.Write(s.encScratch); err != nil {
		return fmt.Errorf("expstore: writing segment header: %w", err)
	}
	return nil
}

// sealLocked flushes and closes the active segment, records it as sealed,
// and retires segments that fell out of the ring window.
func (s *Store) sealLocked() error {
	if err := s.activeBuf.Flush(); err != nil {
		return err
	}
	if err := s.active.Close(); err != nil {
		return err
	}
	s.sealed = append(s.sealed, segMeta{baseSeq: s.activeBase, rows: s.activeRows, path: s.active.Name()})
	s.active = nil
	s.activeBuf = nil
	s.retireLocked()
	return nil
}

// retireLocked deletes sealed segments every row of which has been evicted
// from the ring window [nextSeq-Capacity, nextSeq).
func (s *Store) retireLocked() {
	windowStart := uint64(0)
	if s.nextSeq > uint64(s.spec.Capacity) {
		windowStart = s.nextSeq - uint64(s.spec.Capacity)
	}
	keep := s.sealed[:0]
	for _, seg := range s.sealed {
		if seg.baseSeq+uint64(seg.rows) <= windowStart {
			// Best-effort: a segment that outlives retirement only costs
			// disk, never correctness, so removal errors are not fatal.
			os.Remove(seg.path)
			continue
		}
		keep = append(keep, seg)
	}
	s.sealed = keep
}

// Flush pushes buffered frames to the OS, making all appended rows durable
// against process kill.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.activeBuf == nil {
		return nil
	}
	return s.activeBuf.Flush()
}

// Sync flushes and fsyncs the active segment for machine-crash durability.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.activeBuf == nil {
		return nil
	}
	if err := s.activeBuf.Flush(); err != nil {
		return err
	}
	return s.active.Sync()
}

// Close flushes and closes the active segment, then releases the ring. It
// is idempotent; the store must not be used afterwards (a sample or append
// panics in the closed ring).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.ring.Close()
	if s.active == nil {
		return nil
	}
	if err := s.activeBuf.Flush(); err != nil {
		return err
	}
	err := s.active.Close()
	s.active = nil
	s.activeBuf = nil
	return err
}

// ArenaBytes returns how many bytes of the ring's row storage live outside
// the Go heap (see Ring.ArenaBytes).
func (s *Store) ArenaBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.ArenaBytes()
}

// GatherEncodeLE copies the rows at the given insertion-order indices into
// dst as little-endian float64 bytes under one read lock (see
// Ring.GatherEncodeLE).
func (s *Store) GatherEncodeLE(indices []int, dst []byte) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.ring.GatherEncodeLE(indices, dst)
}

// Stats is a point-in-time snapshot of store occupancy.
type Stats struct {
	Rows     int    `json:"rows"`            // sampleable rows in the ring window
	Total    uint64 `json:"total"`           // rows ever appended
	Base     uint64 `json:"base"`            // global seq of sampleable index 0
	Segments int    `json:"segments"`        // on-disk segments (sealed + active)
	Stride   int    `json:"stride"`          // float64s per row
	DiskRows int    `json:"disk_rows"`       // rows currently held by on-disk segments
	Shard    string `json:"shard,omitempty"` // shard id when serving inside a replay fabric

	ArenaBytes int64 `json:"arena_bytes"` // row storage mapped outside the Go heap
	// HugePageBytes is a figure of the process, not the store, filled by
	// the experience server: anonymous memory on transparent huge pages,
	// i.e. whether rowmem's advice took.
	HugePageBytes int64 `json:"hugepage_bytes"`
}

// Stats returns current occupancy counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Rows:   s.ring.Len(),
		Total:  s.nextSeq,
		Base:   s.ring.Base(),
		Stride: s.layout.Stride(),

		ArenaBytes: s.ring.ArenaBytes(),
	}
	for _, seg := range s.sealed {
		st.Segments++
		st.DiskRows += seg.rows
	}
	if s.active != nil {
		st.Segments++
		st.DiskRows += s.activeRows
	}
	return st
}
