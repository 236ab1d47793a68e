package cli

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		args       []string
		positional bool
		code       int
		done       bool
		stderr     string
	}{
		{args: []string{"-n", "3"}},
		{args: []string{"-h"}, done: true, stderr: "Usage: x\n\nFlags:\n  -n int"},
		{args: []string{"-nope"}, code: ExitUsage, done: true, stderr: "flag provided but not defined"},
		{args: []string{"-n", "x"}, code: ExitUsage, done: true, stderr: "invalid value"},
		{args: []string{"n", "3"}, code: ExitUsage, done: true, stderr: "unexpected arguments: [n 3]"},
		{args: []string{"-n", "3", "a", "b"}, positional: true},
	} {
		var stderr bytes.Buffer
		fs := NewFlagSet("x", "Usage: x\n", &stderr)
		fs.Int("n", 0, "a number")
		code, done := Parse(fs, tc.args, tc.positional)
		if code != tc.code || done != tc.done || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("Parse(%q) = %d, %v, stderr %q; want %d, %v, %q", tc.args, code, done, stderr.String(), tc.code, tc.done, tc.stderr)
		}
	}
}

func TestEnvAndAlgoRejectUnknownNames(t *testing.T) {
	for name, want := range map[string]string{"pp": "predator-prey", "cn": "cooperative-navigation", "pd": "physical-deception"} {
		newEnv, err := Env(name, 2)
		if err != nil || newEnv().Name() != want || newEnv() == newEnv() {
			t.Errorf("Env(%q): %v", name, err)
		}
	}
	if _, err := Env("typo", 2); err == nil || err.Error() != `unknown env "typo" (want pp, cn or pd)` {
		t.Errorf("Env(typo): %v", err)
	}
	for _, name := range []string{"maddpg", "matd3"} {
		if _, err := Algo(name); err != nil {
			t.Error(err)
		}
	}
	if _, err := Algo("typo"); err == nil || err.Error() != `unknown algo "typo" (want maddpg or matd3)` {
		t.Errorf("Algo(typo): %v", err)
	}
}

// The role decides which of the six flags a binary has: none that would
// do nothing.
func TestObserveRegistersWhatTheRoleHas(t *testing.T) {
	for want, role := range map[string]Role{
		"metrics-addr runlog trace trace-buf trace-out trace-sample": {Proc: "learner", SampleUnit: "update stages", SampleDefault: 1, RunLogRecord: "r"},
		"metrics-addr runlog trace trace-buf trace-out":              {Proc: "replayd", RunLogRecord: "r"},
		"metrics-addr trace trace-buf trace-out trace-sample":        {Proc: "marl-serve", SampleUnit: "requests", SampleDefault: 64},
		"trace trace-buf trace-out trace-sample":                     {Proc: "marl-loadgen", SampleUnit: "responses", SampleDefault: 1, NoMetricsAddr: true},
		"metrics-addr runlog":                                        {RunLogRecord: "r"},
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		Observe(fs, role)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if strings.Join(got, " ") != want {
			t.Errorf("role %+v registers %q, want %q", role, got, want)
		}
	}
}

func observe(t *testing.T, role Role, args ...string) *Obs {
	t.Helper()
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o := Observe(fs, role)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestStartRejectsBadTraceFlags(t *testing.T) {
	role := Role{Proc: "p", SampleUnit: "steps", SampleDefault: 1}
	for _, args := range [][]string{{"-trace-out", "t.json"}, {"-trace", "-trace-sample", "0"}} {
		var stderr bytes.Buffer
		if code := observe(t, role, args...).Start(io.Discard, &stderr); code != ExitUsage || stderr.Len() == 0 {
			t.Errorf("Start with %q = %d, stderr %q; want 2 and a message", args, code, stderr.String())
		}
	}
}

func TestStartFailsOnUnusableAddrOrPath(t *testing.T) {
	role := Role{Proc: "p", RunLogRecord: "r"}
	for _, args := range [][]string{
		{"-metrics-addr", "not-an-address"},
		{"-runlog", filepath.Join(t.TempDir(), "no-such-dir", "run.jsonl")},
	} {
		if code := observe(t, role, args...).Start(io.Discard, io.Discard); code != ExitError {
			t.Errorf("Start with %q = %d, want 1", args, code)
		}
	}
}

// Everything off: no tracer, Log and Close do nothing, nothing listens.
func TestObsOffIsInert(t *testing.T) {
	o := observe(t, Role{Proc: "p", SampleUnit: "steps", SampleDefault: 1, RunLogRecord: "r"})
	if code := o.Start(io.Discard, io.Discard); code != ExitOK || o.Tracer != nil || o.Logging() {
		t.Fatalf("Start = %d, tracer %v, logging %v", code, o.Tracer, o.Logging())
	}
	o.Log("dropped")
	o.FlushLog()
	if code := o.Close(ExitInterrupted); code != ExitInterrupted {
		t.Errorf("Close changed the code to %d", code)
	}
}

func TestObsStartLogMountClose(t *testing.T) {
	dir := t.TempDir()
	runlog, traceOut := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "trace.json")
	o := observe(t, Role{Proc: "tier", RunLogRecord: "r"},
		"-metrics-addr", "127.0.0.1:0", "-runlog", runlog, "-trace", "-trace-buf", "16", "-trace-out", traceOut)
	var info bytes.Buffer
	if code := o.Start(&info, io.Discard); code != ExitOK {
		t.Fatalf("Start = %d", code)
	}
	m := regexp.MustCompile(`metrics: http://(\S+)/metrics`).FindStringSubmatch(info.String())
	if m == nil || !strings.Contains(info.String(), "tracing: recording spans for traced requests into a 16-record ring") {
		t.Fatalf("info lines: %q", info.String())
	}
	if o.Tracer.Proc() != "tier" {
		t.Errorf("tracer proc %q", o.Tracer.Proc())
	}
	o.Registry.Counter("up_total").Inc()
	o.Tracer.StartTrace(7, "work").EndArg("", 0)

	// The daemon's own mux answers from the same registry and ring.
	mux := http.NewServeMux()
	o.Mount(mux)
	d := Daemon{Addr: "127.0.0.1:0", Handler: mux, DrainTimeout: time.Second,
		Drain: func(_ context.Context, shutdown func() error) { _ = shutdown() }}
	bound := make(chan string, 1)
	d.Started = func(b string) { bound <- b }
	ctx, cancel := context.WithCancel(context.Background())
	exit := make(chan int, 1)
	go func() { exit <- d.Run(ctx, io.Discard) }()
	for _, base := range []string{m[1], <-bound} {
		for path, want := range map[string]string{"/healthz": "ok\n", "/metrics": "up_total 1", "/tracez": `"work"`} {
			resp, err := http.Get("http://" + base + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 || !strings.Contains(string(body), want) {
				t.Errorf("GET %s%s: %d %q", base, path, resp.StatusCode, body)
			}
		}
	}
	cancel()
	if code := <-exit; code != ExitOK {
		t.Errorf("daemon exit %d", code)
	}

	// Log is safe from many goroutines; every record lands whole.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				o.Log(map[string]int{"g": g, "i": i})
			}
		}()
	}
	wg.Wait()
	if code := o.Close(ExitOK); code != ExitOK {
		t.Fatalf("Close = %d", code)
	}
	f, err := os.Open(runlog)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := telemetry.ScanRunLog(f, nil); err != nil || n != 100 {
		t.Errorf("run log: %d records, err %v", n, err)
	}
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if ct, err := trace.ParseChrome(data); err != nil || len(ct.TraceEvents) != 2 {
		t.Errorf("-trace-out: %d events, err %v", len(ct.TraceEvents), err)
	}
	if _, err := http.Get("http://" + m[1] + "/healthz"); err == nil {
		t.Error("the -metrics-addr server outlived Close")
	}
}

// A trace that cannot be written fails a run that had succeeded, and only
// such a run.
func TestCloseReportsUnwritableTrace(t *testing.T) {
	for in, want := range map[int]int{ExitOK: ExitError, ExitInterrupted: ExitInterrupted} {
		o := observe(t, Role{Proc: "p"}, "-trace", "-trace-out", filepath.Join(t.TempDir(), "no-such-dir", "t.json"))
		var stderr bytes.Buffer
		if code := o.Start(io.Discard, &stderr); code != ExitOK {
			t.Fatal(code)
		}
		if code := o.Close(in); code != want || !strings.Contains(stderr.String(), "writing trace:") {
			t.Errorf("Close(%d) = %d, stderr %q; want %d", in, code, stderr.String(), want)
		}
	}
}

func TestDaemonListenFailure(t *testing.T) {
	var stderr bytes.Buffer
	if code := (Daemon{Addr: "not-an-address"}).Run(context.Background(), &stderr); code != ExitError || stderr.Len() == 0 {
		t.Errorf("Run = %d, stderr %q", code, stderr.String())
	}
}

// A request still in flight holds shutdown until the drain timeout; the
// second signal ends the wait at once, and Run still returns only after the
// tier's hook has.
func TestDaemonSecondSignalForcesDrain(t *testing.T) {
	inFlight, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/hang", func(http.ResponseWriter, *http.Request) {
		close(inFlight)
		<-release
	})
	defer close(release)

	force := make(chan struct{})
	ctx, cancel := context.WithCancel(withForce(context.Background(), force))
	bound, hookDone := make(chan string, 1), make(chan error, 1)
	d := Daemon{
		Addr: "127.0.0.1:0", Handler: mux, DrainTimeout: time.Hour,
		Started: func(b string) { bound <- b },
		Drain:   func(_ context.Context, shutdown func() error) { hookDone <- shutdown() },
	}
	var stderr syncBuffer
	exit := make(chan int, 1)
	go func() { exit <- d.Run(ctx, &stderr) }()
	go http.Get("http://" + <-bound + "/hang")
	<-inFlight

	cancel() // first signal: the drain starts and waits on the request
	select {
	case err := <-hookDone:
		t.Fatalf("shutdown returned (%v) with a request in flight and an hour to wait", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(force) // second signal
	select {
	case err := <-hookDone:
		if err == nil {
			t.Error("a forced shutdown reported a clean one")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the second signal did not end the drain")
	}
	if code := <-exit; code != ExitOK {
		t.Errorf("exit %d", code)
	}
	if !strings.Contains(stderr.String(), "second signal: forcing shutdown") {
		t.Errorf("stderr %q", stderr.String())
	}
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
