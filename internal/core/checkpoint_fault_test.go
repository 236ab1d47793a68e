package core

import (
	"bytes"
	"strings"
	"testing"

	"marlperf/internal/mpe"
	"marlperf/internal/resilience"
	"marlperf/internal/tensor"
)

// Fault-injection coverage for the v2 MARL format: bit flips anywhere in
// the stream, short writes, and the refusal of legacy v1 (trailer-less)
// streams.

func checkpointBytes(t *testing.T, src *Trainer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := src.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func freshTrainer(t *testing.T, algo Algorithm) *Trainer {
	t.Helper()
	tr, err := NewTrainer(smallConfig(algo), mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestLoadCheckpointRejectsBitFlips(t *testing.T) {
	src := trainedTrainer(t, MADDPG)
	data := checkpointBytes(t, src)
	// Sampled offsets across the whole stream plus both edges: header,
	// network parameters, optimizer moments, counters, trailer.
	offsets := []int{0, 1, 4, 5, 8, len(data) - 1, len(data) - 4, len(data) - 12}
	for off := 16; off < len(data); off += 97 {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		dst := freshTrainer(t, MADDPG)
		r := &resilience.BitFlipReader{R: bytes.NewReader(data), Offset: int64(off), Mask: 0x20}
		if err := dst.LoadCheckpoint(r); err == nil {
			t.Fatalf("bit flip at offset %d/%d accepted", off, len(data))
		}
	}
}

func TestLoadCheckpointChecksumFailureLeavesTrainerUntouched(t *testing.T) {
	src := trainedTrainer(t, MADDPG)
	data := checkpointBytes(t, src)
	dst := freshTrainer(t, MADDPG)
	before := dst.agents[0].actor.Params()[0].Clone()
	// Corrupt a byte deep in the parameter section: the CRC check must
	// fire before any parameter is overwritten.
	r := &resilience.BitFlipReader{R: bytes.NewReader(data), Offset: int64(len(data) / 2), Mask: 0x01}
	if err := dst.LoadCheckpoint(r); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if !tensor.ApproxEqual(dst.agents[0].actor.Params()[0], before, 0) {
		t.Fatal("rejected checkpoint still mutated the trainer")
	}
}

func TestSaveCheckpointPropagatesShortWrites(t *testing.T) {
	src := trainedTrainer(t, MADDPG)
	full := int64(len(checkpointBytes(t, src)))
	for _, allow := range []int64{0, 3, 100, full / 2, full - 2} {
		fw := &resilience.FaultWriter{W: &bytes.Buffer{}, Remaining: allow, Short: true}
		if err := src.SaveCheckpoint(fw); err == nil {
			t.Fatalf("short write after %d bytes not reported", allow)
		}
	}
}

// A v1 stream — trailer-less, once read unverified — is refused with a
// version error, and the trainer is left as it was.
func TestLoadCheckpointRejectsV1(t *testing.T) {
	src := trainedTrainer(t, MADDPG)
	data := checkpointBytes(t, src)
	// A v1 stream is the v2 stream with the version field rewound and the
	// CRC trailer stripped.
	v1 := append([]byte(nil), data[:len(data)-4]...)
	v1[4] = 1
	dst := freshTrainer(t, MADDPG)
	before := dst.agents[0].actor.Params()[0].Clone()
	err := dst.LoadCheckpoint(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 checkpoint: err = %v, want a version error", err)
	}
	if !tensor.ApproxEqual(dst.agents[0].actor.Params()[0], before, 0) || dst.TotalSteps() != 0 {
		t.Fatal("rejected v1 checkpoint still mutated the trainer")
	}
}

func TestLoadCheckpointRejectsFutureVersion(t *testing.T) {
	src := trainedTrainer(t, MADDPG)
	data := checkpointBytes(t, src)
	data[4] = 99
	dst := freshTrainer(t, MADDPG)
	err := dst.LoadCheckpoint(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: %v", err)
	}
}
