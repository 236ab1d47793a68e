package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"marlperf/internal/mpe"
	"marlperf/internal/replay"
	"marlperf/internal/resilience"
)

// goldenSnapshotPath is the MSNP file the parent of the frame codec wrote:
// an untrained two-agent trainer's MARL checkpoint, a five-row synthetic
// MARB buffer and a run-state section (kind 3, an RNG continuation seed)
// that snapshots no longer carry. FuzzReadSnapshot seeds from it too.
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

// A snapshot written by the parent of the frame codec reads here, re-encodes
// byte for byte and restores through RestoreSnapshot, its run-state section
// skipped; and this build writes its trainer and replay sections byte for
// byte from the same inputs, so that parent reads ours.
func TestGoldenSnapshotAcrossCommits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden checkpoint section was recorded on amd64, not %s", runtime.GOARCH)
	}
	golden, err := os.ReadFile(goldenSnapshotPath)
	if err != nil {
		t.Fatal(err)
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
	if len(snap.Sections) != 3 || snap.Sections[2].Kind != 3 || len(snap.Sections[2].Payload) != 16 {
		t.Fatal("the golden no longer ends in its 16-byte run-state section")
	}

	ours, err := goldenSnapshotTrainer(t).SnapshotSections()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ours[0].Payload, section(t, snap, resilience.SectionTrainer)) {
		t.Fatal("this build no longer writes the golden's trainer section byte for byte")
	}
	if !bytes.Equal(replay.AppendSection(nil, goldenSnapshotBuffer()), section(t, snap, resilience.SectionReplay)) {
		t.Fatal("this build no longer writes the golden's replay section byte for byte")
	}

	// The golden's replay rows are synthetic, three and four observations
	// wide, and fit no trainer: the whole file is refused with nothing
	// installed. Without them, the parent's trainer and run-state sections
	// restore, and the restored trainer re-encodes its section.
	tr := goldenSnapshotTrainer(t)
	tr.ReseedRNG(99)
	if err := tr.RestoreSnapshot(snap); err == nil || !strings.Contains(err.Error(), "restored buffer") {
		t.Fatalf("restoring the synthetic rows: %v", err)
	}
	if tr.rng.Int63() != rand.New(rand.NewSource(99)).Int63() {
		t.Fatal("a refused snapshot reseeded the trainer")
	}
	noRows := &resilience.Snapshot{Sections: []resilience.Section{snap.Sections[0], snap.Sections[2]}}
	if err := tr.RestoreSnapshot(noRows); err != nil {
		t.Fatalf("restoring the golden's trainer and run-state sections: %v", err)
	}
	if !bytes.Equal(trainerStateBytes(t, tr), section(t, snap, resilience.SectionTrainer)) {
		t.Fatal("the restored trainer section re-encodes to other bytes")
	}
	buf := replay.NewBuffer(goldenSnapshotBuffer().Spec())
	rows, err := replay.ReadSection(section(t, snap, resilience.SectionReplay), buf.Spec())
	if err != nil {
		t.Fatalf("reading the golden replay section: %v", err)
	}
	rows.AddTo(buf)
	if !bytes.Equal(replay.AppendSection(nil, buf), section(t, snap, resilience.SectionReplay)) {
		t.Fatal("the decoded replay section re-encodes to other bytes")
	}
}
