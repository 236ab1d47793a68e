package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"regexp"
	"strings"
	"testing"

	"marlperf/internal/faultnet"
	"marlperf/internal/mpe"
	"marlperf/internal/tensor"
)

// Fault-injection coverage for the v2 MARL format: bit flips anywhere in
// the stream, short writes, and the refusal of legacy v1 (trailer-less)
// streams.

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
	data := trainerStateBytes(t, src)
	// Sampled offsets across the whole stream plus both edges: header,
	// network parameters, optimizer moments, counters, trailer.
	offsets := []int{0, 1, 4, 5, 8, len(data) - 1, len(data) - 4, len(data) - 12}
	for off := 16; off < len(data); off += 97 {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		dst := freshTrainer(t, MADDPG)
		r := &faultnet.BitFlipReader{R: bytes.NewReader(data), Offset: int64(off), Mask: 0x20}
		if err := dst.LoadCheckpoint(r); err == nil {
			t.Fatalf("bit flip at offset %d/%d accepted", off, len(data))
		}
	}
}

func TestLoadCheckpointChecksumFailureLeavesTrainerUntouched(t *testing.T) {
	src := trainedTrainer(t, MADDPG)
	data := trainerStateBytes(t, src)
	dst := freshTrainer(t, MADDPG)
	before := dst.agents[0].actor.Params()[0].Clone()
	// Corrupt a byte deep in the parameter section: the CRC check must
	// fire before any parameter is overwritten.
	r := &faultnet.BitFlipReader{R: bytes.NewReader(data), Offset: int64(len(data) / 2), Mask: 0x01}
	if err := dst.LoadCheckpoint(r); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if !tensor.ApproxEqual(dst.agents[0].actor.Params()[0], before, 0) {
		t.Fatal("rejected checkpoint still mutated the trainer")
	}
}

// A body that passes its checksum but ends early — here a three-agent
// checkpoint cut short and sealed again — is refused with an error naming
// the agent and the part that did not decode, and leaves the trainer
// exactly as it was: no agent's networks or optimizers are installed until
// every one of them has decoded.
func TestLoadCheckpointIsAllOrNothing(t *testing.T) {
	newTrainer := func(seed int64) *Trainer {
		cfg := smallConfig(MATD3)
		cfg.Seed = seed
		tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(3))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		return tr
	}
	data := trainerStateBytes(t, newTrainer(1))
	body := data[:len(data)-4]
	named := regexp.MustCompile(`agent \d (target )?(actor|critic[12])( optimizer)?\b`)
	for _, frac := range []int{1, 2, 3, 4, 5, 6} {
		cut := body[:len(body)*frac/7]
		resealed := binary.LittleEndian.AppendUint32(append([]byte(nil), cut...), crc32.ChecksumIEEE(cut))
		dst := newTrainer(2)
		before := trainerStateBytes(t, dst)
		err := dst.LoadCheckpoint(bytes.NewReader(resealed))
		if err == nil || !named.MatchString(err.Error()) {
			t.Fatalf("body cut at %d/7: err = %v, want one naming the agent and part", frac, err)
		}
		if !bytes.Equal(trainerStateBytes(t, dst), before) {
			t.Fatalf("body cut at %d/7: the refused checkpoint still changed the trainer (%v)", frac, err)
		}
	}
}

func TestSaveCheckpointPropagatesShortWrites(t *testing.T) {
	src := trainedTrainer(t, MADDPG)
	full := int64(len(trainerStateBytes(t, src)))
	for _, allow := range []int64{0, 3, 100, full / 2, full - 2} {
		fw := &faultnet.FaultWriter{W: &bytes.Buffer{}, Remaining: allow, Short: true}
		if err := src.SaveCheckpoint(fw); err == nil {
			t.Fatalf("short write after %d bytes not reported", allow)
		}
	}
}

// A v1 stream — trailer-less, once read unverified — is refused with a
// version error, and the trainer is left as it was.
func TestLoadCheckpointRejectsV1(t *testing.T) {
	src := trainedTrainer(t, MADDPG)
	data := trainerStateBytes(t, src)
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
	data := trainerStateBytes(t, src)
	data[4] = 99
	dst := freshTrainer(t, MADDPG)
	err := dst.LoadCheckpoint(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: %v", err)
	}
}
