package main

import (
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"marlperf/internal/cli"
	"marlperf/internal/cli/clitest"
	"marlperf/internal/nn"
	"marlperf/internal/policysync"
)

// -trace-out is the one flag the shared set adds: the daemon writes it at
// drain (TestLifecycle reads it back).
func TestFlagSurface(t *testing.T) { clitest.Surface(t, run, "trace-out ") }

func TestUsageErrors(t *testing.T) {
	clitest.UsageErrors(t, run,
		[]string{"-no-such-flag"},
		[]string{"127.0.0.1:9400"},       // a stray positional argument
		[]string{"-trace-out", "t.json"}, // without -trace
	)
}

// TestLifecycle starts the daemon on free ports, checks every endpoint it
// serves on both listeners, publishes through it from several goroutines
// at once (OnPublish logs from the request goroutines; the run log locks
// itself, so -race must stay quiet), then cancels it the way SIGTERM does:
// the drain hook runs, it exits 0, and the run log and -trace-out are whole.
func TestLifecycle(t *testing.T) {
	dir := t.TempDir()
	runlog, traceOut := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "trace.json")
	p := clitest.Start(t, run, "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-runlog", runlog, "-trace", "-trace-out", traceOut)
	metrics := p.Await(t, `metrics: http://(\S+)/metrics`)[1]
	addr := p.Await(t, `policy service: serving .* on http://(\S+) `)[1]
	for _, base := range []string{addr, metrics} {
		for _, path := range []string{"/healthz", "/metrics", "/tracez"} {
			if code, _ := clitest.Get(t, "http://"+base+path); code != 200 {
				t.Errorf("GET %s%s: %d", base, path, code)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	nets := []*nn.Network{nn.NewMLP(rng, 4, 8, 3), nn.NewMLP(rng, 4, 8, 3)}
	const publishers, each = 4, 5
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		frame, err := policysync.EncodeSnapshot(nil, uint64(g), nets)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := policysync.NewClient(addr, policysync.ClientOptions{})
			for i := 0; i < each; i++ {
				if _, err := client.Publish(frame); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if _, body := clitest.Get(t, "http://"+metrics+"/metrics"); !strings.Contains(body, "marl_policy_") {
		t.Errorf("-metrics-addr serves no marl_policy_* series:\n%s", body)
	}

	if code := p.Stop(t); code != cli.ExitOK {
		t.Fatalf("exit %d after cancel; stderr:\n%s", code, p.Stderr.String())
	}
	if !strings.Contains(p.Stderr.String(), "drained; exiting") {
		t.Errorf("drain hook did not run; stderr:\n%s", p.Stderr.String())
	}
	if n := len(clitest.RunLog(t, runlog)); n != publishers*each {
		t.Errorf("run log holds %d records, want %d", n, publishers*each)
	}
	clitest.ChromeTrace(t, traceOut)
}
