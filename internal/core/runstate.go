package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"marlperf/internal/frame"
)

// Run state is the small non-checkpoint remainder a resumable run needs:
// the RNG continuation seed. Progress counters travel in the checkpoint;
// experience travels in the replay buffer; this section makes the restored
// exploration stream deterministic instead of wall-clock dependent.
//
// Format (little-endian): magic "MRUN" | uint32 version | uint64 seed.
// Integrity is the enclosing snapshot's job (resilience.WriteSnapshot CRCs
// every section), so the payload carries no trailer of its own.

const (
	runStateMagic   = "MRUN"
	runStateVersion = 1
)

// SaveRunState writes the run-state section. It draws the continuation
// seed from the live RNG stream (advancing it by one value), so every save
// point yields a distinct, deterministic future.
func (t *Trainer) SaveRunState(w io.Writer) error {
	buf := frame.AppendHeader(make([]byte, 0, 16), runStateMagic, runStateVersion)
	_, err := w.Write(binary.LittleEndian.AppendUint64(buf, uint64(t.rng.Int63())))
	return err
}

// LoadRunState restores the section written by SaveRunState, reseeding the
// trainer's RNG with the recorded continuation seed.
func (t *Trainer) LoadRunState(r io.Reader) error {
	d, err := frame.Read(r, runStateMagic, runStateVersion)
	if err != nil {
		return fmt.Errorf("core: run state: %w", err)
	}
	seed := d.U64()
	if err := d.Err(); err != nil {
		return fmt.Errorf("core: run state: %w", err)
	}
	t.ReseedRNG(int64(seed))
	return nil
}
