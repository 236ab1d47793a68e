package main

import (
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
		[]string{}, // needs at least one source
	)
}

func TestMissingSourceIsARuntimeError(t *testing.T) {
	code, _, stderr := clitest.Exec(t, run, filepath.Join(t.TempDir(), "absent.json"))
	if code != cli.ExitError || !strings.Contains(stderr, "capturing") {
		t.Fatalf("exited %d, want 1; stderr:\n%s", code, stderr)
	}
}
