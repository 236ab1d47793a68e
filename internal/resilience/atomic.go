// Package resilience makes long training runs survive crashes, bit rot and
// numerical divergence. It provides crash-safe file persistence (temp file →
// fsync → rename), a CRC32-framed multi-section snapshot format that bundles
// trainer checkpoint, replay buffer and run state into one recoverable unit,
// a generation store with retention and newest-intact fallback, and retry
// with exponential backoff for persistence I/O. The faults the tests inject
// live in the test-support package internal/faultnet.
package resilience

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a file so that a crash at any point leaves either
// the previous content or the new content, never a torn mix: the payload is
// produced into a temp file in the same directory, fsynced, closed, renamed
// over path, and the directory entry is fsynced. The write callback receives
// the temp file as its destination.
func WriteFileAtomic(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("resilience: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("resilience: fsync %s: %w", tmpName, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("resilience: close %s: %w", tmpName, err)
	}
	if err = os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("resilience: rename %s → %s: %w", tmpName, path, err)
	}
	// Persist the rename itself; without this a power cut can roll the
	// directory entry back even though the data blocks are durable.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// RemoveStaleTemps deletes leftover temp files from interrupted atomic
// writes of base inside dir, returning how many were removed. base may be a
// filepath.Match pattern ("snap-*.msnp"). Safe to call on every startup.
func RemoveStaleTemps(dir, base string) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, base+".tmp-*"))
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, m := range matches {
		if os.Remove(m) == nil {
			removed++
		}
	}
	return removed, nil
}
