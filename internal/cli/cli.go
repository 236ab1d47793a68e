// Package cli is the spine every binary in cmd/ stands on: the exit codes,
// the signal-to-context entry point, flag parsing that rejects what a binary
// does not take, the -env / -algo name tables, the observability flag set
// (obs.go) and the serving-tier skeleton (daemon.go). A binary is one
//
//	func run(ctx context.Context, args []string, stdout, stderr io.Writer) int
//
// handed to Main, so a test can drive it in-process with its own arguments,
// writers and cancellation.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"marlperf/internal/core"
	"marlperf/internal/mpe"
	"marlperf/internal/replay"
)

// Exit codes, the same on every binary (each -h prints the ones it uses).
const (
	ExitOK          = 0 // completed, or drained cleanly after a signal
	ExitError       = 1 // runtime failure
	ExitUsage       = 2 // bad command line
	ExitInterrupted = 3 // SIGINT/SIGTERM ended a run early; state was flushed first
	ExitGate        = 4 // marl-trace: a requested gate failed
)

// RunFunc is a whole binary.
type RunFunc func(ctx context.Context, args []string, stdout, stderr io.Writer) int

type forceKey struct{}

// Main runs a binary under the process's real arguments and streams and
// exits with its code. The first SIGINT/SIGTERM cancels ctx; a second one
// is what Daemon.Run reads as "stop waiting for the drain".
func Main(run RunFunc) {
	// Buffered for the two signals that mean something.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithCancel(context.Background())
	force := make(chan struct{})
	go func() {
		<-sigs
		cancel()
		<-sigs
		close(force)
	}()
	os.Exit(run(withForce(ctx, force), os.Args[1:], os.Stdout, os.Stderr))
}

func withForce(ctx context.Context, force <-chan struct{}) context.Context {
	return context.WithValue(ctx, forceKey{}, force)
}

// forced returns the channel Main closes on the second signal; nil (blocks
// forever) under a context Main did not make.
func forced(ctx context.Context) <-chan struct{} {
	force, _ := ctx.Value(forceKey{}).(<-chan struct{})
	return force
}

// NewFlagSet returns the flag set a binary registers on: errors are
// returned to Parse rather than exiting, and -h prints usage, then the flags,
// to stderr.
func NewFlagSet(name, usage string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "%s\nFlags:\n", usage)
		fs.PrintDefaults()
	}
	return fs
}

// Parse parses args. When done is set run returns code at once: ExitOK
// after -h, ExitUsage after an undefined or malformed flag or — unless the
// binary takes positional arguments — anything left over after the flags
// ("marl-train episodes 5" would otherwise train the default 100).
func Parse(fs *flag.FlagSet, args []string, positional bool) (code int, done bool) {
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return ExitOK, true
	case err != nil: // fs has printed it, and the usage
		return ExitUsage, true
	case !positional && fs.NArg() > 0:
		fmt.Fprintf(fs.Output(), "unexpected arguments: %v\n", fs.Args())
		return ExitUsage, true
	}
	return ExitOK, false
}

// Env maps an -env name to a constructor of independent instances.
func Env(name string, agents int) (func() mpe.Env, error) {
	switch name {
	case "pp":
		return func() mpe.Env { return mpe.NewPredatorPrey(agents) }, nil
	case "cn":
		return func() mpe.Env { return mpe.NewCooperativeNavigation(agents) }, nil
	case "pd":
		return func() mpe.Env { return mpe.NewPhysicalDeception(agents) }, nil
	}
	return nil, fmt.Errorf("unknown env %q (want pp, cn or pd)", name)
}

// Spec is the transition shape an environment fixes, for a store of the
// given capacity: what a replayd validates its actors and learners against.
func Spec(env mpe.Env, capacity int) replay.Spec {
	return replay.Spec{
		NumAgents: env.NumAgents(),
		ObsDims:   env.ObsDims(),
		ActDim:    env.NumActions(),
		Capacity:  capacity,
	}
}

// Algo maps an -algo name to the workload.
func Algo(name string) (core.Algorithm, error) {
	switch name {
	case "maddpg":
		return core.MADDPG, nil
	case "matd3":
		return core.MATD3, nil
	}
	return 0, fmt.Errorf("unknown algo %q (want maddpg or matd3)", name)
}
