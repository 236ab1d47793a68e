package main

import (
	"testing"

	"marlperf/internal/cli/clitest"
)

func TestFlagSurface(t *testing.T) { clitest.Surface(t, run) }

func TestUsageErrors(t *testing.T) {
	clitest.UsageErrors(t, run,
		[]string{"-no-such-flag"},
		[]string{"127.0.0.1:9500"}, // a stray positional argument
		[]string{"-clients", "0"},
		[]string{"-encoding", "xml"},
		[]string{"-trace-out", "t.json"}, // without -trace
		[]string{"-trace", "-trace-sample", "0"},
	)
}
