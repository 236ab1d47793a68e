package expstore

import (
	"bytes"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"marlperf/internal/f64le"
	"marlperf/internal/replay"
)

// goldenSegmentRow is row r of the golden segments: five rows with an
// infinity, a negative zero, a subnormal and a NaN with a payload in row 0.
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

// goldenBatches are the batches testdata/v2 holds, appended with
// SegmentRows 3: actor "golden"'s seq 3 carries rows 0–2 and seals the
// first segment, actor "other"'s seq 1 carries rows 3–4 and opens the
// second, whose header lists golden's cursor.
func goldenBatches(stride int) []Batch {
	var rows []float64
	for r := 0; r < 5; r++ {
		rows = append(rows, goldenSegmentRow(stride, r)...)
	}
	return []Batch{
		{ActorID: "golden", BatchSeq: 3, Rows: rows[:3*stride], N: 3},
		{ActorID: "other", BatchSeq: 1, Rows: rows[3*stride:], N: 2},
	}
}

// The version-2 segment files recover bit for bit, rows and cursors, and
// writing the same batches produces the same files byte for byte. The
// version-1 file (testdata/seg-000000000000.xpk, one row per record) is
// refused with an error that names its version.
func TestGoldenSegmentAcrossCommits(t *testing.T) {
	spec := replay.Spec{NumAgents: 2, ObsDims: []int{3, 4}, ActDim: 2, Capacity: 64}
	opts := Options{SegmentRows: 3}
	names := []string{"seg-000000000000.xpk", "seg-000000000003.xpk"}

	v1, err := os.ReadFile(filepath.Join("testdata", names[0]))
	if err != nil {
		t.Fatal(err)
	}
	v1Dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(v1Dir, names[0]), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(v1Dir, spec, opts); err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Fatalf("opening a version-1 segment: %v, want a refusal naming version 1", err)
	}

	oldDir := t.TempDir()
	golden := make([][]byte, len(names))
	for i, name := range names {
		if golden[i], err = os.ReadFile(filepath.Join("testdata", "v2", name)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(oldDir, name), golden[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old, err := Open(oldDir, spec, opts)
	if err != nil {
		t.Fatalf("recovering the golden segments: %v", err)
	}
	defer old.Close()
	stride := old.Layout().Stride()
	if old.RowCount() != 5 || old.Total() != 5 {
		t.Fatalf("recovered %d rows (total %d), want 5", old.RowCount(), old.Total())
	}
	if got, want := old.Cursors(), map[string]uint64{"golden": 3, "other": 1}; !maps.Equal(got, want) {
		t.Fatalf("recovered cursors %v, want %v", got, want)
	}
	encoded := make([]byte, 5*stride*8)
	old.GatherEncodeLE([]int{0, 1, 2, 3, 4}, encoded)
	got := make([]float64, 5*stride)
	f64le.Get(got, encoded)
	for r := 0; r < 5; r++ {
		want := goldenSegmentRow(stride, r)
		for i := range want {
			if g := got[r*stride+i]; math.Float64bits(g) != math.Float64bits(want[i]) {
				t.Fatalf("row %d float %d: recovered %x, want %x", r, i, math.Float64bits(g), math.Float64bits(want[i]))
			}
		}
	}

	newDir := t.TempDir()
	fresh, err := Open(newDir, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenBatches(stride) {
		appendBatch(t, fresh, b.ActorID, b.BatchSeq, b.Rows)
	}
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		ours, err := os.ReadFile(filepath.Join(newDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ours, golden[i]) {
			t.Fatalf("the store no longer writes %s byte for byte", name)
		}
	}
}
