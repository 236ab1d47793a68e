// Package clitest drives a cli.RunFunc in-process: the tests under cmd/
// start a binary with their own arguments, read what it prints, cancel it
// the way a signal would and check the exit code.
package clitest

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"marlperf/internal/cli"
	"marlperf/internal/netretry"
	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

// Output is a writer a running binary and the test can share.
type Output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *Output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *Output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// Proc is one started binary.
type Proc struct {
	Stdout, Stderr Output
	cancel         context.CancelFunc
	done           chan struct{} // closed once code is set
	code           int
}

// Start runs the binary on its own goroutine. The test's cleanup stops it
// if the test did not.
func Start(t *testing.T, run cli.RunFunc, args ...string) *Proc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	p := &Proc{cancel: cancel, done: make(chan struct{})}
	go func() {
		p.code = run(ctx, args, &p.Stdout, &p.Stderr)
		close(p.done)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-p.done:
		case <-time.After(30 * time.Second):
			t.Errorf("binary did not return after cancel; stderr:\n%s", p.Stderr.String())
		}
	})
	return p
}

// Await polls the binary's output (stdout, then stderr) until pattern
// matches and returns the submatches, failing the test after a minute or
// when the binary exits without printing it.
func (p *Proc) Await(t *testing.T, pattern string) []string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	exited := false
	for deadline := time.Now().Add(time.Minute); ; {
		if m := re.FindStringSubmatch(p.Stdout.String() + p.Stderr.String()); m != nil {
			return m
		}
		if exited || time.Now().After(deadline) {
			t.Fatalf("no %q in output (exited: %v)\nstdout:\n%s\nstderr:\n%s", pattern, exited, p.Stdout.String(), p.Stderr.String())
		}
		select {
		case <-p.done:
			exited = true // look once more: it may have printed the line on its way out
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Wait returns the exit code of a binary that ends by itself.
func (p *Proc) Wait(t *testing.T) int {
	t.Helper()
	select {
	case <-p.done:
		return p.code
	case <-time.After(2 * time.Minute):
		t.Fatalf("binary still running\nstdout:\n%s\nstderr:\n%s", p.Stdout.String(), p.Stderr.String())
		return -1
	}
}

// Stop cancels the binary's context, as the first SIGTERM does, and waits.
func (p *Proc) Stop(t *testing.T) int {
	t.Helper()
	p.cancel()
	return p.Wait(t)
}

// Exec runs the binary to completion.
func Exec(t *testing.T, run cli.RunFunc, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	p := Start(t, run, args...)
	code = p.Wait(t)
	return code, p.Stdout.String(), p.Stderr.String()
}

// Surface checks the operator's surface: -h exits 0, and the flags it
// lists — as "name default" lines, what FlagSet.VisitAll yields — are the
// golden file's (written at the commit before the binaries moved onto
// internal/cli) plus added, nothing renamed, re-defaulted or dropped.
func Surface(t *testing.T, run cli.RunFunc, added ...string) {
	t.Helper()
	golden, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := append(strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n"), added...)
	sort.Strings(want)
	code, _, help := Exec(t, run, "-h")
	if code != cli.ExitOK {
		t.Fatalf("-h exited %d, want 0", code)
	}
	if got := flagLines(t, help); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("flag surface changed\n got: %q\nwant: %q", got, want)
	}
}

var (
	stanzaRE  = regexp.MustCompile(`(?m)^  -(\S+)(?: (\S+))?`)
	defaultRE = regexp.MustCompile(`\(default (.*)\)$`)
)

// flagLines reads "name default" back out of flag.PrintDefaults' stanzas,
// which print the default only when it is not the type's zero value.
func flagLines(t *testing.T, help string) []string {
	_, flags, ok := strings.Cut(help, "\nFlags:\n")
	if !ok {
		t.Fatalf("-h output has no Flags section:\n%s", help)
	}
	var lines []string
	starts := stanzaRE.FindAllStringSubmatchIndex(flags, -1)
	for i, m := range starts {
		end := len(flags)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		name, typ := flags[m[2]:m[3]], ""
		if m[4] >= 0 {
			typ = flags[m[4]:m[5]]
		}
		def := "0" // int, uint, float
		switch typ {
		case "":
			def = "false"
		case "string":
			def = ""
		case "duration":
			def = "0s"
		}
		if d := defaultRE.FindStringSubmatch(strings.TrimSpace(flags[m[0]:end])); d != nil {
			def = d[1]
			if s, err := strconv.Unquote(def); typ == "string" && err == nil {
				def = s
			}
		}
		lines = append(lines, name+" "+def)
	}
	return lines
}

// UsageErrors checks that each argument list exits 2 without starting
// anything.
func UsageErrors(t *testing.T, run cli.RunFunc, argLists ...[]string) {
	t.Helper()
	for _, args := range argLists {
		if code, _, stderr := Exec(t, run, args...); code != cli.ExitUsage {
			t.Errorf("%q exited %d, want 2; stderr:\n%s", args, code, stderr)
		}
	}
}

// Get fetches url and returns the status and body.
func Get(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := netretry.ReadBody(resp.Body, resp.ContentLength, 64<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// ChromeTrace parses a -trace-out file and returns its events.
func ChromeTrace(t *testing.T, path string) []trace.ChromeEvent {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.ParseChrome(data)
	if err != nil {
		t.Fatalf("%s is not Chrome trace JSON: %v", path, err)
	}
	return ct.TraceEvents
}

// RunLog returns the whole records of a -runlog file.
func RunLog(t *testing.T, path string) []json.RawMessage {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var records []json.RawMessage
	if _, err := telemetry.ScanRunLog(f, func(line json.RawMessage) error {
		records = append(records, append(json.RawMessage(nil), line...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return records
}
