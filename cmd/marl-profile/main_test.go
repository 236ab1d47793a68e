package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"marlperf/internal/cli"
	"marlperf/internal/cli/clitest"
)

// -trace-buf is the one flag the shared set adds (the tracer used to be
// built at the default capacity whatever the operator wanted).
func TestFlagSurface(t *testing.T) { clitest.Surface(t, run, "trace-buf 65536") }

func TestUsageErrors(t *testing.T) {
	clitest.UsageErrors(t, run,
		[]string{"-no-such-flag"},
		[]string{"-agents", "3", "6"}, // a stray positional argument
		[]string{"-agents", "3,x"},
		[]string{"-trace-out", "t.json"}, // without -trace
		[]string{"-trace", "-trace-sample", "0"},
	)
}

// An unknown -env used to profile cooperative navigation and an unknown
// -algo MADDPG, silently; both are now the usage error marl-train prints.
func TestUnknownEnvAndAlgoRejected(t *testing.T) {
	for args, want := range map[string]string{
		"-env typo":  `unknown env "typo" (want pp, cn or pd)`,
		"-algo typo": `unknown algo "typo" (want maddpg or matd3)`,
	} {
		code, _, stderr := clitest.Exec(t, run, strings.Fields(args)...)
		if code != cli.ExitUsage || strings.TrimSpace(stderr) != want {
			t.Errorf("%s: exit %d, stderr %q; want 2, %q", args, code, stderr, want)
		}
	}
}

// -env pd used to fall through to cooperative navigation.
func TestPhysicalDeceptionIsProfiled(t *testing.T) {
	code, stdout, stderr := clitest.Exec(t, run, "-env", "pd", "-agents", "2", "-episodes", "1", "-batch", "32", "-fill", "200", "-trace-buf", "128")
	if code != cli.ExitOK || !strings.Contains(stdout, "physical-deception") {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
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

// A run that fails after its first configuration used to os.Exit past the
// deferred run-log Close and the -trace-out write. It now returns through
// run: exit 1, every appended record on disk as a whole line, the trace
// written.
func TestFailedRunKeepsRunLogAndTrace(t *testing.T) {
	dir := t.TempDir()
	runlog, traceOut := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "trace.json")
	var stderr clitest.Output
	code := run(context.Background(), []string{"-json", "-agents", "2,2", "-episodes", "8", "-batch", "32", "-fill", "200",
		"-runlog", runlog, "-trace", "-trace-out", traceOut}, &failAfterFirst{}, &stderr)
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
	if len(clitest.ChromeTrace(t, traceOut)) < 2 {
		t.Error("-trace-out holds no update span")
	}
}
