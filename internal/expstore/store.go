package expstore

import (
	"bufio"
	"encoding/binary"
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
// zero: large enough to amortize per-file cost, small enough that retiring
// whole segments frees disk soon after their rows leave the ring window.
const DefaultSegmentRows = 4096

// Options tune a Store.
type Options struct {
	// SegmentRows is the row count at which the active segment is sealed,
	// at the first batch boundary at or past it; the next batch starts a
	// new one. Defaults to DefaultSegmentRows.
	SegmentRows int
}

// segMeta describes one sealed, fully-verified segment on disk.
type segMeta struct {
	baseSeq uint64
	rows    int
	path    string
}

// Store is the crash-recoverable experience store: every acknowledged batch
// goes both to an in-memory Ring (the sampling substrate) and, as its
// append frame verbatim, to the active segment file. Segments rotate at
// SegmentRows rows and are deleted once every row they hold has been
// evicted from the ring window, bounding disk use at roughly Capacity rows
// plus one segment.
//
// Durability contract: Append returns once the batch's record reached the
// OS, so a batch appended without error survives a SIGKILL of the process.
// On reopen the newest segment may end in a torn record, which can only be
// a batch whose Append never returned; recovery truncates it away whole.
// Nothing is fsynced, so an acknowledged batch does not survive a crash of
// the machine.
//
// All methods are safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	dir    string
	spec   replay.Spec
	layout replay.RowLayout
	opts   Options

	ring    *Ring
	sealed  []segMeta
	cursors map[string]uint64 // newest batch sequence appended per actor

	active     *os.File
	activeBuf  *bufio.Writer // its first error sticks, failing every later append
	activeBase uint64
	activeRows int

	nextSeq uint64 // global insertion index of the next appended row
}

// Open loads (or creates) a store in dir for spec. Existing segments are
// verified and replayed to rebuild the ring and the per-actor cursors:
// interior segments must be fully intact; the newest segment may carry a
// torn tail, which is truncated away.
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
		dir:     dir,
		spec:    spec,
		layout:  replay.NewRowLayout(spec),
		opts:    opts,
		ring:    NewRing(spec),
		cursors: make(map[string]uint64),
	}
	if err := s.recover(); err != nil {
		s.ring.Close()
		return nil, err
	}
	return s, nil
}

// recover scans the segment chain, verifies it, truncates a torn tail on
// the newest segment, replays the retained window into the ring and every
// record into the cursors, and leaves the store ready to append at nextSeq.
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

	var segs []segment
	var metas []segMeta
	for i, path := range paths {
		last := i == len(paths)-1
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("expstore: reading segment: %w", err)
		}
		seg, err := parseSegment(data, s.layout, last)
		if errors.Is(err, errTornHeader) {
			// The newest segment's header never hit disk: the crash landed
			// before its first record was flushed. Nothing in it was ever
			// acknowledged; drop the file and resume from the chain so far.
			if rmErr := os.Remove(path); rmErr != nil {
				return fmt.Errorf("expstore: dropping torn segment: %w", rmErr)
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("expstore: %s: %w", filepath.Base(path), err)
		}
		if len(metas) > 0 {
			prev := metas[len(metas)-1]
			if seg.baseSeq != prev.baseSeq+uint64(prev.rows) {
				return fmt.Errorf("expstore: segment chain gap: %s starts at seq %d, previous ends at %d",
					filepath.Base(path), seg.baseSeq, prev.baseSeq+uint64(prev.rows))
			}
		}
		if last && seg.goodOff < len(data) {
			// Torn tail after the last intact record: truncate so the next
			// append continues a clean record boundary.
			if err := os.Truncate(path, int64(seg.goodOff)); err != nil {
				return fmt.Errorf("expstore: truncating torn tail of %s: %w", filepath.Base(path), err)
			}
		}
		segs = append(segs, seg)
		metas = append(metas, segMeta{baseSeq: seg.baseSeq, rows: seg.rows, path: path})
	}

	if len(segs) == 0 {
		return nil
	}
	tail := metas[len(metas)-1]
	s.nextSeq = tail.baseSeq + uint64(tail.rows)

	// The oldest header holds the cursors of every batch before it; the
	// records carry the rest. Replay the newest Capacity rows into the
	// ring, oldest first, with the ring's total seeded so Base() reflects
	// global sequence numbers.
	s.cursors = segs[0].cursors
	windowStart := uint64(0)
	if s.nextSeq > uint64(s.spec.Capacity) {
		windowStart = s.nextSeq - uint64(s.spec.Capacity)
	}
	s.ring.total = windowStart
	stride := s.layout.Stride()
	for _, seg := range segs {
		seq := seg.baseSeq
		for _, b := range seg.batches {
			s.cursors[b.ActorID] = b.BatchSeq
			for k := 0; k < b.N; k, seq = k+1, seq+1 {
				if seq >= windowStart {
					s.ring.Append(b.Rows[k*stride : (k+1)*stride])
				}
			}
		}
	}

	// Reopen the newest segment for appending; if it is full, the next
	// append seals it.
	f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("expstore: reopening active segment: %w", err)
	}
	s.active = f
	s.activeBuf = bufio.NewWriter(f)
	s.activeBase = tail.baseSeq
	s.activeRows = tail.rows
	s.sealed = metas[:len(metas)-1]
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

// Append writes batch b, decoded from the verified append frame frame, as
// one record of the active segment and flushes it to the OS; only then do
// its rows become sampleable and its sequence its actor's cursor. So a
// batch survives a kill of the process once Append returns nil. After a
// failed write every later Append fails too: nothing acknowledged can land
// behind a torn record.
func (s *Store) Append(b Batch, frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active != nil && s.activeRows >= s.opts.SegmentRows {
		if err := s.sealLocked(); err != nil {
			return err
		}
	}
	if s.active == nil {
		if err := s.openSegmentLocked(); err != nil {
			return err
		}
	}
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], s.nextSeq)
	_, _ = s.activeBuf.Write(seq[:]) // bufio keeps a write error for Flush to return
	_, _ = s.activeBuf.Write(frame)
	if err := s.activeBuf.Flush(); err != nil {
		return fmt.Errorf("expstore: appending batch at seq %d: %w", s.nextSeq, err)
	}
	stride := s.layout.Stride()
	for k := 0; k < b.N; k++ {
		s.ring.Append(b.Rows[k*stride : (k+1)*stride])
	}
	s.cursors[b.ActorID] = b.BatchSeq
	s.nextSeq += uint64(b.N)
	s.activeRows += b.N
	return nil
}

// openSegmentLocked starts a fresh segment at nextSeq, its header carrying
// the cursors so far. The header reaches the OS with the first record.
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
	_, _ = s.activeBuf.Write(appendSegmentHeader(nil, s.layout, s.nextSeq, s.cursors)) // as in Append
	return nil
}

// sealLocked closes the full active segment, records it as sealed, and
// retires segments that fell out of the ring window. Append calls it ahead
// of the next batch, so a failed close fails a batch nothing of which was
// written.
func (s *Store) sealLocked() error {
	err := s.active.Close()
	s.sealed = append(s.sealed, segMeta{baseSeq: s.activeBase, rows: s.activeRows, path: s.active.Name()})
	s.active = nil
	s.activeBuf = nil
	s.retireLocked()
	if err != nil {
		return fmt.Errorf("expstore: sealing segment: %w", err)
	}
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

// Cursors returns a copy of the newest batch sequence appended per actor,
// recovered from the segments on Open.
func (s *Store) Cursors() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]uint64, len(s.cursors))
	for actor, seq := range s.cursors {
		out[actor] = seq
	}
	return out
}

// Close closes the active segment, then releases the ring. It is
// idempotent; the store must not be used afterwards (a sample or append
// panics in the closed ring).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.ring.Close()
	if s.active == nil {
		return nil
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
