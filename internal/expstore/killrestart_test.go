package expstore

// Real-signal crash test: a child process (this test binary re-executed with
// an env guard) appends batches of self-checking rows to a store until the
// parent SIGKILLs it mid-write. The parent then reopens the store and proves
// the invariant the segment format promises: recovery keeps a contiguous
// intact prefix of whole batches — every batch whose Append returned
// survives, only the one torn at the tail may be dropped — and the store
// accepts new appends exactly where the prefix ends.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"marlperf/internal/replay"
)

const (
	killChildEnv = "EXPSTORE_KILL_CHILD_DIR"
	// killBatchRows is the child's batch size; every batch whose Append
	// returned must survive the kill.
	killBatchRows = 50
)

func killSpec() replay.Spec {
	return replay.Spec{NumAgents: 2, ObsDims: []int{3, 4}, ActDim: 2, Capacity: 100000}
}

// TestMain runs the appender child when re-executed with the env guard, and
// the normal test binary otherwise.
func TestMain(m *testing.M) {
	if dir := os.Getenv(killChildEnv); dir != "" {
		killChildMain(dir)
		return
	}
	os.Exit(m.Run())
}

// killChildMain appends batches of killBatchRows rows forever, reporting
// durable progress to progress.txt — until SIGKILLed.
func killChildMain(dir string) {
	s, err := Open(filepath.Join(dir, "store"), killSpec(), Options{SegmentRows: 64})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	layout := s.Layout()
	stride := layout.Stride()
	progress := filepath.Join(dir, "progress.txt")
	rows := make([]float64, killBatchRows*stride)
	for seq := uint64(0); ; seq += killBatchRows {
		for k := range killBatchRows {
			copy(rows[k*stride:], rowForSeq(layout, seq+uint64(k)))
		}
		b := Batch{ActorID: "kill", BatchSeq: seq/killBatchRows + 1, Rows: rows, N: killBatchRows}
		if err := s.Append(b, EncodeAppend(nil, b, stride)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Publish the durable row count only after the append: rows up to
		// here must survive any subsequent kill.
		tmp := progress + ".tmp"
		if err := os.WriteFile(tmp, []byte(strconv.FormatUint(seq+killBatchRows, 10)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.Rename(tmp, progress); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func TestSIGKILLRecoveryKeepsFlushedPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec kill test skipped in -short")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), killChildEnv+"="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the child to make real progress, then SIGKILL it mid-stream.
	progress := filepath.Join(dir, "progress.txt")
	var durable uint64
	deadline := time.Now().Add(20 * time.Second)
	for {
		if data, err := os.ReadFile(progress); err == nil {
			if v, err := strconv.ParseUint(string(data), 10, 64); err == nil && v >= 10*killBatchRows {
				durable = v
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("child never reported durable progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reap; exit status is the kill signal

	// The progress file may lag the true durable count (the child can have
	// flushed more batches after the last rename) — durable is a lower bound.
	if data, err := os.ReadFile(progress); err == nil {
		if v, err := strconv.ParseUint(string(data), 10, 64); err == nil && v > durable {
			durable = v
		}
	}

	// "Restart": reopen the store and verify zero intact-record loss.
	s, err := Open(filepath.Join(dir, "store"), killSpec(), Options{SegmentRows: 64})
	if err != nil {
		t.Fatalf("recovery after SIGKILL failed: %v", err)
	}
	defer s.Close()
	recovered := s.Total()
	if recovered < durable {
		t.Fatalf("recovered %d rows, but %d were appended before the kill", recovered, durable)
	}
	if recovered%killBatchRows != 0 {
		t.Fatalf("recovered %d rows, not a whole number of %d-row batches", recovered, killBatchRows)
	}
	if c := s.Cursors()["kill"]; c != recovered/killBatchRows {
		t.Fatalf("recovered cursor %d for %d rows, want %d", c, recovered, recovered/killBatchRows)
	}
	t.Logf("SIGKILL at ≥%d durable rows; recovered %d (torn tail dropped: an unacknowledged batch only)", durable, recovered)

	// Every recovered row is intact and in sequence.
	verifyWindow(t, s, s.Stats().Base, s.RowCount())

	// The reopened store appends exactly where the intact prefix ends.
	appendSeqs(t, s, recovered, recovered+100)
	verifyWindow(t, s, s.Stats().Base, s.RowCount())
	if s.Total() != recovered+100 {
		t.Fatalf("Total = %d after 100 post-recovery appends, want %d", s.Total(), recovered+100)
	}
}
