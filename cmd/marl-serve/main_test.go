package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"marlperf/internal/cli"
	"marlperf/internal/cli/clitest"
	"marlperf/internal/nn"
	"marlperf/internal/policysync"
	"marlperf/internal/telemetry"
)

func TestFlagSurface(t *testing.T) { clitest.Surface(t, run) }

func TestUsageErrors(t *testing.T) {
	clitest.UsageErrors(t, run,
		[]string{"-no-such-flag"},
		[]string{"127.0.0.1:9500"}, // a stray positional argument
		[]string{"-max-batch", "0"},
		[]string{"-canary-percent", "101"},
		[]string{"-trace-out", "t.json"}, // without -trace
		[]string{"-trace", "-trace-sample", "0"},
	)
}

// TestLifecycle starts the gateway on free ports against an in-process
// policy service that has published nothing: the gateway's own /healthz
// answers 503, flips to 200 at the first install, /act answers, the
// -metrics-addr listener serves the rest; then a cancel, as SIGTERM, runs
// BeginDrain, exits 0, prints the epilogue and writes -trace-out.
func TestLifecycle(t *testing.T) {
	store := policysync.NewStore(telemetry.NewRegistry())
	policy, err := policysync.NewServer(policysync.ServerConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	policyd := httptest.NewServer(policy.Handler())
	defer policyd.Close()
	defer store.Close() // first: releases the long-polls Close would wait for

	traceOut := filepath.Join(t.TempDir(), "trace.json")
	p := clitest.Start(t, run, "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-policy-addr", policyd.URL, "-trace", "-trace-sample", "1", "-trace-out", traceOut)
	metrics := p.Await(t, `metrics: http://(\S+)/metrics`)[1]
	addr := p.Await(t, `serving actions on http://([^/\s]+)/act`)[1]
	if code, _ := clitest.Get(t, "http://"+addr+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz before the first install: %d, want 503", code)
	}

	rng := rand.New(rand.NewSource(1))
	nets := []*nn.Network{nn.NewMLP(rng, 4, 8, 3), nn.NewMLP(rng, 4, 8, 3)}
	if _, err := policysync.NewClient(policyd.URL, policysync.ClientOptions{}).PublishNetworks(1, nets); err != nil {
		t.Fatal(err)
	}
	p.Await(t, `policy: serving v1 `)
	for _, path := range []string{"/healthz", "/statz"} {
		if code, _ := clitest.Get(t, "http://"+addr+path); code != 200 {
			t.Errorf("GET %s after the install: %d", path, code)
		}
	}
	resp, err := http.Post("http://"+addr+"/act", "application/json", strings.NewReader(`{"obs": [[0,0,0,0],[0,0,0,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("POST /act: %d", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/metrics", "/tracez"} {
		if code, _ := clitest.Get(t, "http://"+metrics+path); code != 200 {
			t.Errorf("GET -metrics-addr%s: %d", path, code)
		}
	}

	if code := p.Stop(t); code != cli.ExitOK {
		t.Fatalf("exit %d after cancel; stderr:\n%s", code, p.Stderr.String())
	}
	if !strings.Contains(p.Stdout.String(), "stopped: head v1") {
		t.Errorf("no drain epilogue; stdout:\n%s", p.Stdout.String())
	}
	clitest.ChromeTrace(t, traceOut)
}
