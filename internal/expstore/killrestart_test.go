package expstore

// Real-signal crash test: a child process (this test binary re-executed with
// an env guard) appends self-checking rows to a store, flushing every batch,
// until the parent SIGKILLs it mid-write. The parent then reopens the store
// and proves the invariant the segment format promises: recovery keeps a
// contiguous intact prefix — every row flushed before the kill survives,
// only the torn tail past the last flush may be dropped — and the store
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
	// killFlushEvery is the child's flush cadence; everything up to the last
	// flush must survive the kill.
	killFlushEvery = 50
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

// killChildMain appends rows forever, flushing every killFlushEvery rows and
// reporting durable progress to progress.txt — until SIGKILLed.
func killChildMain(dir string) {
	s, err := Open(filepath.Join(dir, "store"), killSpec(), Options{SegmentRows: 64})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	layout := s.Layout()
	progress := filepath.Join(dir, "progress.txt")
	for seq := uint64(0); ; seq++ {
		if err := s.AppendRow(rowForSeq(layout, seq)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if (seq+1)%killFlushEvery == 0 {
			if err := s.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			// Publish the durable row count only after the flush: rows up to
			// here must survive any subsequent kill.
			tmp := progress + ".tmp"
			if err := os.WriteFile(tmp, []byte(strconv.FormatUint(seq+1, 10)), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := os.Rename(tmp, progress); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
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
			if v, err := strconv.ParseUint(string(data), 10, 64); err == nil && v >= 10*killFlushEvery {
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
		t.Fatalf("recovered %d rows, but %d were flushed before the kill", recovered, durable)
	}
	t.Logf("SIGKILL at ≥%d durable rows; recovered %d (torn tail dropped: unflushed only)", durable, recovered)

	// Every recovered row is intact and in sequence.
	verifyWindow(t, s, s.Stats().Base, s.RowCount())

	// The reopened store appends exactly where the intact prefix ends.
	appendSeqs(t, s, recovered, recovered+100)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	verifyWindow(t, s, s.Stats().Base, s.RowCount())
	if s.Total() != recovered+100 {
		t.Fatalf("Total = %d after 100 post-recovery appends, want %d", s.Total(), recovered+100)
	}
}
