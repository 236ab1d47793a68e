package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"marlperf/internal/cli"
	"marlperf/internal/cli/clitest"
)

func TestFlagSurface(t *testing.T) { clitest.Surface(t, run) }

func TestUsageErrors(t *testing.T) {
	clitest.UsageErrors(t, run,
		[]string{"-no-such-flag"},
		[]string{"-exp", "fig8", "small"}, // a stray positional argument
		[]string{"-exp", "no-such-experiment"},
		[]string{"-exp", "fig8", "-scale", "huge"},
		[]string{"-exp", "fig4", "-format", "typo"}, // used to print text and exit 0
	)
}

func TestList(t *testing.T) {
	code, stdout, _ := clitest.Exec(t, run, "-list")
	if code != cli.ExitOK || !strings.Contains(stdout, "fig8") {
		t.Fatalf("-list exited %d:\n%s", code, stdout)
	}
}

// Every -format json line is one table row stamped with the kernel body
// and the update-worker count; stdout holds nothing else.
func TestJSONFormat(t *testing.T) {
	code, stdout, stderr := clitest.Exec(t, run, "-exp", "fig4", "-format", "json")
	if code != cli.ExitOK {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("want one line per fig4 row, got:\n%s", stdout)
	}
	for i, l := range lines {
		var line struct {
			Experiment string
			Kernels    string
			Workers    int
			Headers    []string
			Cells      []string
		}
		if err := json.Unmarshal([]byte(l), &line); err != nil {
			t.Fatalf("line %d: %v: %q", i, err, l)
		}
		if line.Experiment != "fig4" || line.Kernels == "" || line.Workers != 1 || len(line.Cells) != len(line.Headers) {
			t.Errorf("line %d: %s", i, l)
		}
	}
}

// failAfterFirst accepts one write and fails the rest.
type failAfterFirst struct{ writes int }

func (w *failAfterFirst) Write(p []byte) (int, error) {
	if w.writes++; w.writes > 1 {
		return 0, errors.New("stdout is gone")
	}
	return len(p), nil
}

// A failed stdout write used to be ignored: a closed pipe still exited 0.
// It now returns through run, so the deferred close still leaves every
// appended run-log record on disk as a whole line.
func TestFailedRunKeepsRunLog(t *testing.T) {
	runlog := filepath.Join(t.TempDir(), "run.jsonl")
	var stderr clitest.Output
	code := run(context.Background(), []string{"-exp", "fig4,fig4", "-runlog", runlog}, &failAfterFirst{}, &stderr)
	if code != cli.ExitError || !strings.Contains(stderr.String(), "stdout is gone") {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(runlog)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(clitest.RunLog(t, runlog)); n == 0 || !strings.HasSuffix(string(data), "}\n") {
		t.Errorf("run log: %d whole records, tail %q", n, data[max(0, len(data)-40):])
	}
}
