package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"marlperf/internal/mpe"
	"marlperf/internal/replay"
	"marlperf/internal/resilience"
)

// goldenSnapshotPath is the MSNP file the parent of the frame codec wrote:
// an untrained two-agent trainer's MARL checkpoint, a five-row synthetic
// MARB buffer and the trainer's MRUN run state. FuzzReadSnapshot seeds from
// it too.
var goldenSnapshotPath = filepath.Join("..", "resilience", "testdata", "snap-golden.msnp")

// goldenSnapshotTrainer is the golden's fixed-seed, untrained trainer, kept
// small (hidden width 2) so the whole file stays a few kilobytes.
func goldenSnapshotTrainer(t *testing.T) *Trainer {
	t.Helper()
	cfg := smallConfig(MADDPG)
	cfg.HiddenSize = 2
	tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

// goldenSnapshotBuffer is the golden's replay section: five rows of
// distinct values in an eight-slot buffer.
func goldenSnapshotBuffer() *replay.Buffer {
	buf := replay.NewBuffer(replay.Spec{NumAgents: 2, ObsDims: []int{3, 4}, ActDim: 2, Capacity: 8})
	v := 0.0
	next := func(n int) []float64 {
		row := make([]float64, n)
		for i := range row {
			v += 0.125
			row[i] = v
		}
		return row
	}
	for r := 0; r < 5; r++ {
		obs := [][]float64{next(3), next(4)}
		act := [][]float64{next(2), next(2)}
		rew := next(2)
		nextObs := [][]float64{next(3), next(4)}
		buf.Add(obs, act, rew, nextObs, []float64{0, float64(r % 2)})
	}
	return buf
}

// goldenSnapshotSections encodes the three sections from the golden's inputs.
func goldenSnapshotSections(t *testing.T) []resilience.Section {
	t.Helper()
	tr := goldenSnapshotTrainer(t)
	var ckpt, rb, run bytes.Buffer
	if err := tr.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := goldenSnapshotBuffer().WriteTo(&rb); err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveRunState(&run); err != nil {
		t.Fatal(err)
	}
	return []resilience.Section{
		{Kind: resilience.SectionTrainer, Payload: ckpt.Bytes()},
		{Kind: resilience.SectionReplay, Payload: rb.Bytes()},
		{Kind: resilience.SectionRunState, Payload: run.Bytes()},
	}
}

// A snapshot written by the parent of the frame codec reads here, and every
// section re-encodes byte for byte from what was decoded; and this build's
// writers produce that file byte for byte from the same inputs, so the
// parent would read ours.
func TestGoldenSnapshotAcrossCommits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden checkpoint section was recorded on amd64, not %s", runtime.GOARCH)
	}
	golden, err := os.ReadFile(goldenSnapshotPath)
	if err != nil {
		t.Fatal(err)
	}

	var ours bytes.Buffer
	if err := resilience.WriteSnapshot(&ours, goldenSnapshotSections(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ours.Bytes(), golden) {
		t.Fatal("this build no longer writes the parent commit's snapshot byte for byte")
	}

	snap, err := resilience.ReadSnapshot(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("reading the parent-written snapshot: %v", err)
	}
	var again bytes.Buffer
	if err := resilience.WriteSnapshot(&again, snap.Sections); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Fatal("re-encoding the decoded snapshot changed its bytes")
	}

	section := func(kind resilience.SectionKind) []byte {
		payload, ok := snap.Section(kind)
		if !ok {
			t.Fatalf("golden snapshot has no %v section", kind)
		}
		return payload
	}
	tr := goldenSnapshotTrainer(t)
	tr.ReseedRNG(99) // the loaded state, not the constructor's, must be what re-encodes
	if err := tr.LoadCheckpoint(bytes.NewReader(section(resilience.SectionTrainer))); err != nil {
		t.Fatalf("loading the golden trainer section: %v", err)
	}
	var ckpt bytes.Buffer
	if err := tr.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt.Bytes(), section(resilience.SectionTrainer)) {
		t.Fatal("the loaded trainer section re-encodes to other bytes")
	}

	buf, err := replay.ReadBuffer(bytes.NewReader(section(resilience.SectionReplay)))
	if err != nil {
		t.Fatalf("reading the golden replay section: %v", err)
	}
	var rb bytes.Buffer
	if _, err := buf.WriteTo(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb.Bytes(), section(resilience.SectionReplay)) {
		t.Fatal("the decoded replay section re-encodes to other bytes")
	}

	// A run-state section is a continuation seed: loading it must leave the
	// RNG where reseeding with the recorded value does, so both draw the
	// same next section.
	run := section(resilience.SectionRunState)
	if err := tr.LoadRunState(bytes.NewReader(run)); err != nil {
		t.Fatalf("loading the golden run-state section: %v", err)
	}
	ref := goldenSnapshotTrainer(t)
	ref.ReseedRNG(int64(binary.LittleEndian.Uint64(run[8:])))
	var got, want bytes.Buffer
	if err := tr.SaveRunState(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.SaveRunState(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) || len(run) != 16 {
		t.Fatal("the decoded run-state section does not continue the recorded stream")
	}
}
