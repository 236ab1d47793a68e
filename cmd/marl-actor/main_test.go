package main

import (
	"testing"

	"marlperf/internal/cli/clitest"
)

func TestFlagSurface(t *testing.T) { clitest.Surface(t, run) }

func TestUsageErrors(t *testing.T) {
	clitest.UsageErrors(t, run,
		[]string{"-no-such-flag"},
		[]string{"actor-7"}, // a stray positional argument
		[]string{"-env", "typo"},
		[]string{"-algo", "typo"},
		[]string{"-envs", "0"},
		[]string{"-replay-addr", ""},
		[]string{"-trace-out", "t.json"}, // without -trace
		[]string{"-trace", "-trace-sample", "0"},
	)
}
