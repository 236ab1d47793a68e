package main

import (
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
	)
}

func TestList(t *testing.T) {
	code, stdout, _ := clitest.Exec(t, run, "-list")
	if code != cli.ExitOK || !strings.Contains(stdout, "fig8") {
		t.Fatalf("-list exited %d:\n%s", code, stdout)
	}
}
