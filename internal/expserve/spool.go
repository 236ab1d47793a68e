package expserve

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"marlperf/internal/expstore"
	"marlperf/internal/resilience"
	"marlperf/internal/telemetry"
)

// Actor-side experience spool: when marl-replayd is unreachable, a
// RemoteSink diverts whole append frames to a local directory instead of
// failing the rollout loop, and drains them — in sequence order — once the
// server answers again. Each spooled batch is one file holding the exact
// CRC-framed wire payload it would have shipped, so a drain is a byte-
// identical redelivery and the server's per-(actor,seq) dedup keeps
// exactly-once semantics across any interleaving of crashes: a file is
// deleted only after the server acknowledged the frame, and a frame
// redelivered after a crash-between-ack-and-delete is acknowledged as a
// duplicate, not re-applied.

// SpoolOptions arm local disk spooling on a RemoteSink.
type SpoolOptions struct {
	// Dir is the spool directory (created if absent). Required.
	Dir string
	// MaxBytes bounds the spool; a diversion that would exceed it fails
	// the sink (backpressure instead of filling the disk). 0 = 1 GiB.
	MaxBytes int64
	// Registry receives marl_spool_* metrics; nil keeps them private.
	Registry *telemetry.Registry
}

const spoolSuffix = ".xpb"

func spoolName(seq uint64) string { return fmt.Sprintf("spool-%016d%s", seq, spoolSuffix) }

type spoolEntry struct {
	seq   uint64
	rows  int
	path  string
	bytes int64
}

type spool struct {
	dir      string
	maxBytes int64
	entries  []spoolEntry
	bytes    int64

	spooledBatches *telemetry.Counter
	spooledRows    *telemetry.Counter
	drainedBatches *telemetry.Counter
	drainedRows    *telemetry.Counter
	depthG         *telemetry.Gauge
	bytesG         *telemetry.Gauge
}

func (sp *spool) len() int { return len(sp.entries) }

func (sp *spool) updateGauges() {
	sp.depthG.Set(float64(len(sp.entries)))
	sp.bytesG.Set(float64(sp.bytes))
}

// EnableSpool arms spooling on the sink, adopting any batches a previous
// incarnation of the same actor left behind: the sink's sequence counter
// fast-forwards past the newest spooled batch, and the backlog ships ahead
// of new data on the next flush or DrainSpool. Call after SkipTo (the
// newest cursor wins) and before the first Add.
func (s *RemoteSink) EnableSpool(opts SpoolOptions) error {
	if opts.Dir == "" {
		return fmt.Errorf("expserve: spool needs a directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return fmt.Errorf("expserve: spool dir: %w", err)
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 1 << 30
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	reg.SetHelp("marl_spool_depth_batches", "Experience batches waiting in the local spool.")
	reg.SetHelp("marl_spool_bytes", "Bytes of experience waiting in the local spool.")
	sp := &spool{
		dir:            opts.Dir,
		maxBytes:       opts.MaxBytes,
		spooledBatches: reg.Counter("marl_spool_batches_total"),
		spooledRows:    reg.Counter("marl_spool_rows_total"),
		drainedBatches: reg.Counter("marl_spool_drained_batches_total"),
		drainedRows:    reg.Counter("marl_spool_drained_rows_total"),
		depthG:         reg.Gauge("marl_spool_depth_batches"),
		bytesG:         reg.Gauge("marl_spool_bytes"),
	}

	names, err := filepath.Glob(filepath.Join(opts.Dir, "spool-*"+spoolSuffix))
	if err != nil {
		return fmt.Errorf("expserve: scanning spool: %w", err)
	}
	sort.Strings(names)
	stride := s.layout.Stride()
	var rows []float64 // decode scratch; only the headers are kept
	for _, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("expserve: reading spooled batch: %w", err)
		}
		batch, err := expstore.DecodeAppend(data, stride, &rows)
		if err != nil {
			// A torn spool file is a crash mid-spool: the batch was never
			// acknowledged to the rollout engine, so dropping it is safe —
			// but only at the tail. Earlier corruption would break the
			// contiguous sequence and is surfaced instead.
			if path == names[len(names)-1] {
				os.Remove(path)
				continue
			}
			return fmt.Errorf("expserve: corrupt spooled batch %s: %w", filepath.Base(path), err)
		}
		if batch.ActorID != s.actorID {
			return fmt.Errorf("expserve: spool %s belongs to actor %q, this sink is %q",
				filepath.Base(path), batch.ActorID, s.actorID)
		}
		if n := len(sp.entries); n > 0 && batch.BatchSeq <= sp.entries[n-1].seq {
			return fmt.Errorf("expserve: spool sequence regressed: %s carries seq %d after %d",
				filepath.Base(path), batch.BatchSeq, sp.entries[n-1].seq)
		}
		sp.entries = append(sp.entries, spoolEntry{seq: batch.BatchSeq, rows: batch.N, path: path, bytes: int64(len(data))})
		sp.bytes += int64(len(data))
	}
	// Drop temp files from an interrupted spool write.
	if tmps, _ := filepath.Glob(filepath.Join(opts.Dir, "*.tmp*")); len(tmps) > 0 {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	if n := len(sp.entries); n > 0 {
		s.SkipTo(sp.entries[n-1].seq)
	}
	sp.updateGauges()
	s.spool = sp
	return nil
}

// SpoolLen returns how many batches are waiting in the spool (0 when no
// spool is armed).
func (s *RemoteSink) SpoolLen() int {
	if s.spool == nil {
		return 0
	}
	return s.spool.len()
}

// spoolFrame persists batch batchSeq's frame as the newest spool entry.
// cause, when non-nil, is the ship failure that forced the diversion.
func (s *RemoteSink) spoolFrame(frame []byte, cause error) error {
	sp, seq := s.spool, s.batchSeq
	rows := (len(frame) - expstore.AppendHeaderLen(len(s.actorID)) - 4) / (8 * s.layout.Stride())
	if sp.bytes+int64(len(frame)) > sp.maxBytes {
		return fmt.Errorf("expserve: spool full (%d bytes + %d-byte batch exceeds %d); server still unreachable: %v",
			sp.bytes, len(frame), sp.maxBytes, cause)
	}
	path := filepath.Join(sp.dir, spoolName(seq))
	if err := resilience.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(frame)
		return err
	}); err != nil {
		return fmt.Errorf("expserve: spooling batch %d: %w", seq, err)
	}
	sp.entries = append(sp.entries, spoolEntry{seq: seq, rows: rows, path: path, bytes: int64(len(frame))})
	sp.bytes += int64(len(frame))
	sp.spooledBatches.Inc()
	sp.spooledRows.Add(uint64(rows))
	sp.updateGauges()
	if s.OnSpool != nil {
		s.OnSpool(len(sp.entries), cause)
	}
	return nil
}

// DrainSpool ships every spooled batch in sequence order, riding through
// transient failures with the client's full retry budget. A batch's file
// is deleted only after its ack; the server's dedup absorbs redelivery.
func (s *RemoteSink) DrainSpool() error { return s.drainSpool(false) }

func (s *RemoteSink) drainSpool(failFast bool) error {
	sp := s.spool
	if sp == nil || len(sp.entries) == 0 {
		return nil
	}
	shipped := 0
	for len(sp.entries) > 0 {
		e := sp.entries[0]
		frame, err := os.ReadFile(e.path)
		if err != nil {
			return fmt.Errorf("expserve: reading spooled batch %d: %w", e.seq, err)
		}
		if _, err := s.doAppend(frame, failFast); err != nil {
			if shipped > 0 && s.OnDrain != nil {
				s.OnDrain(shipped)
			}
			return err
		}
		os.Remove(e.path)
		sp.entries = sp.entries[1:]
		sp.bytes -= e.bytes
		sp.drainedBatches.Inc()
		sp.drainedRows.Add(uint64(e.rows))
		sp.updateGauges()
		shipped++
	}
	if shipped > 0 && s.OnDrain != nil {
		s.OnDrain(shipped)
	}
	return nil
}
