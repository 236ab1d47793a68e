package resilience

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Store manages a directory of snapshot generations: atomic writes, a
// retention policy, and recovery that falls back to older generations when
// the newest is truncated or bit-flipped.
//
// Files are named snap-<seq>.msnp; seq is a monotonically increasing
// generation number chosen by the caller (episode count, update count).
type Store struct {
	dir    string
	retain int

	// Retry governs how persistence I/O failures are retried.
	Retry RetryPolicy
}

// NewStore opens (creating if needed) a snapshot directory keeping the
// newest retain generations, and clears temp files left by interrupted
// writes.
func NewStore(dir string, retain int) (*Store, error) {
	if retain < 1 {
		return nil, fmt.Errorf("resilience: retain = %d, want ≥1", retain)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resilience: creating snapshot dir: %w", err)
	}
	// Best effort: a temp file that survives only wastes space.
	_, _ = RemoveStaleTemps(dir, "snap-*.msnp")
	return &Store{dir: dir, retain: retain, Retry: DefaultRetryPolicy()}, nil
}

// Dir returns the snapshot directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file path of generation seq.
func (s *Store) Path(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%012d.msnp", seq))
}

// Generations returns the stored generation numbers in ascending order.
func (s *Store) Generations() ([]uint64, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, "snap-*.msnp"))
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, m := range matches {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(m), "snap-%d.msnp", &seq); err == nil {
			gens = append(gens, seq)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Save writes generation seq with WriteFileAtomic (retried per s.Retry),
// then prunes generations beyond the retention limit. On success it returns
// the written path. A process that dies inside Save leaves at most a stray
// temp file, which the next NewStore sweeps, or a published generation that
// was not yet rotated, which the next Save prunes.
func (s *Store) Save(seq uint64, sections []Section) (string, error) {
	path := s.Path(seq)
	err := s.Retry.Do(func() error {
		return WriteFileAtomic(path, func(w io.Writer) error { return WriteSnapshot(w, sections) })
	})
	if err != nil {
		return "", err
	}
	if err := s.rotate(); err != nil {
		return path, err
	}
	return path, nil
}

// rotate deletes the oldest generations beyond the retention limit.
func (s *Store) rotate() error {
	gens, err := s.Generations()
	if err != nil {
		return err
	}
	for len(gens) > s.retain {
		if err := os.Remove(s.Path(gens[0])); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("resilience: pruning generation %d: %w", gens[0], err)
		}
		gens = gens[1:]
	}
	return nil
}

// Load reads and validates generation seq.
func (s *Store) Load(seq uint64) (*Snapshot, error) {
	f, err := os.Open(s.Path(seq))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// GenerationError records why one stored generation was rejected during
// recovery.
type GenerationError struct {
	Seq  uint64
	Path string
	Err  error
}

func (e GenerationError) Error() string {
	return fmt.Sprintf("generation %d (%s): %v", e.Seq, filepath.Base(e.Path), e.Err)
}

// ErrNoSnapshot reports that recovery found no intact generation.
var ErrNoSnapshot = errors.New("resilience: no intact snapshot")

// LoadLatest scans the directory newest-first, validates each generation's
// checksums, and returns the newest intact snapshot. Corrupt or truncated
// generations are skipped and reported (not deleted — they stay on disk for
// post-mortem). When nothing is intact the error wraps ErrNoSnapshot.
func (s *Store) LoadLatest() (*Snapshot, uint64, []GenerationError, error) {
	gens, err := s.Generations()
	if err != nil {
		return nil, 0, nil, err
	}
	var skipped []GenerationError
	for i := len(gens) - 1; i >= 0; i-- {
		snap, err := s.Load(gens[i])
		if err == nil {
			return snap, gens[i], skipped, nil
		}
		skipped = append(skipped, GenerationError{Seq: gens[i], Path: s.Path(gens[i]), Err: err})
	}
	if len(skipped) > 0 {
		return nil, 0, skipped, fmt.Errorf("%w: all %d generations corrupt, newest: %v",
			ErrNoSnapshot, len(skipped), skipped[0])
	}
	return nil, 0, nil, ErrNoSnapshot
}
