package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type testRecord struct {
	Step   int     `json:"step"`
	Reward float64 `json:"reward"`
}

func TestRunLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l, err := CreateRunLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 250
	for i := 0; i < n; i++ {
		if err := l.Append(testRecord{Step: i, Reward: float64(i) * 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	next := 0
	got, err := ScanRunLog(f, func(line json.RawMessage) error {
		var r testRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if r.Step != next {
			t.Fatalf("record %d has step %d", next, r.Step)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("scanned %d records, want %d", got, n)
	}
}

// TestRunLogTruncatedTail simulates a crash mid-write: the file ends in a
// torn record, which the scanner must drop without error.
func TestRunLogTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(`{"step":0,"reward":1}` + "\n")
	buf.WriteString(`{"step":1,"reward":2}` + "\n")
	buf.WriteString(`{"step":2,"rew`) // torn: no newline, invalid JSON

	got, err := ScanRunLog(&buf, nil)
	if err != nil {
		t.Fatalf("torn tail should be tolerated, got %v", err)
	}
	if got != 2 {
		t.Fatalf("scanned %d records, want 2", got)
	}
}

// TestRunLogTornButValidJSONTail: a tail line without a newline is torn
// even if its prefix happens to parse as JSON (e.g. a truncated number).
func TestRunLogTornButValidJSONTail(t *testing.T) {
	r := strings.NewReader(`{"step":0}` + "\n" + `12`)
	got, err := ScanRunLog(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("scanned %d, want 1 (unterminated tail dropped)", got)
	}
}

// TestRunLogMidFileCorruptionIsError: garbage with records after it is not
// a crash signature — it must surface.
func TestRunLogMidFileCorruptionIsError(t *testing.T) {
	r := strings.NewReader(`{"step":0}` + "\n" + `not-json` + "\n" + `{"step":2}` + "\n")
	if _, err := ScanRunLog(r, nil); err == nil {
		t.Fatal("mid-file corruption should be an error")
	}
}

func TestRunLogEmptyAndBlankLines(t *testing.T) {
	got, err := ScanRunLog(strings.NewReader(""), nil)
	if err != nil || got != 0 {
		t.Fatalf("empty: %d, %v", got, err)
	}
	got, err = ScanRunLog(strings.NewReader("\n\n{\"a\":1}\n\n"), nil)
	if err != nil || got != 1 {
		t.Fatalf("blank lines: %d, %v", got, err)
	}
}

func TestRunLogAppendAfterCloseFails(t *testing.T) {
	l, err := CreateRunLog(filepath.Join(t.TempDir(), "x.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord{}); err == nil {
		t.Fatal("Append after Close should fail")
	}
}

// TestRunLogConcurrentAppend: whole lines only, never interleaved bytes.
func TestRunLogConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l, err := CreateRunLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := l.Append(testRecord{Step: g*perG + i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ScanRunLog(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != goroutines*perG {
		t.Fatalf("scanned %d records, want %d", got, goroutines*perG)
	}
}
