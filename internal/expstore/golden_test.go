package expstore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"marlperf/internal/replay"
)

// goldenSegmentRow is row r of testdata/seg-000000000000.xpk, a five-row
// segment the commit before the f64le record codec wrote through
// Store.AppendRow.
func goldenSegmentRow(stride, r int) []float64 {
	row := make([]float64, stride)
	for i := range row {
		row[i] = float64(r*stride+i)*0.375 - 7.25
	}
	if r == 0 {
		row[1] = math.Inf(-1)
		row[2] = math.Copysign(0, -1)
		row[3] = math.SmallestNonzeroFloat64
		row[4] = math.Float64frombits(0x7ff8000000000abc) // NaN with a payload
	}
	return row
}

// The segment format did not move with its codec: a segment file the
// parent commit wrote recovers bit for bit, and writing the same rows now
// produces the same file byte for byte.
func TestGoldenSegmentAcrossCommits(t *testing.T) {
	const name = "seg-000000000000.xpk"
	golden, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	spec := replay.Spec{NumAgents: 2, ObsDims: []int{3, 4}, ActDim: 2, Capacity: 64}

	oldDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(oldDir, name), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := Open(oldDir, spec, Options{})
	if err != nil {
		t.Fatalf("recovering the parent-written segment: %v", err)
	}
	defer old.Close()
	stride := old.Layout().Stride()
	if old.RowCount() != 5 || old.Total() != 5 {
		t.Fatalf("recovered %d rows (total %d), want 5", old.RowCount(), old.Total())
	}
	for r := 0; r < 5; r++ {
		got, want := old.ring.Row(r), goldenSegmentRow(stride, r)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("row %d float %d: recovered %x, want %x", r, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}

	newDir := t.TempDir()
	fresh, err := Open(newDir, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		if err := fresh.AppendRow(goldenSegmentRow(stride, r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	ours, err := os.ReadFile(filepath.Join(newDir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ours, golden) {
		t.Fatal("the store no longer writes the parent commit's segment file byte for byte")
	}
}
