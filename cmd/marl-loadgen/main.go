// Command marl-loadgen drives a marl-serve gateway with a closed-loop
// workload: -clients concurrent clients, each posting one /act request at a
// time for -duration, measuring end-to-end latency and counting which
// policy version answered. It is the measurement half of the serving
// benchmark — the same shape ssbench-style harnesses use, small enough to
// run inside CI smokes.
//
// Usage:
//
//	marl-loadgen -addr 127.0.0.1:9500 -clients 16 -duration 10s \
//	  -encoding binary -report bench.json
//
// Observations are synthetic (seeded normal draws at the serving widths,
// fetched from /statz), so the load is deterministic per (-seed, client).
// The JSON report carries request/error counts, QPS, the latency quantile
// ladder (p50/p90/p99/p999), and per-version hit counts — the canary-split
// evidence. With -trace, responses carrying X-Marl-Trace get an
// after-the-fact client span, joining this process to the learner→policyd→
// serve trace for merged timelines.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"marlperf/internal/cli"
	"marlperf/internal/serve"
	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

const usage = `Usage: marl-loadgen [flags]

Closed-loop load against a marl-serve /act endpoint: every client keeps
exactly one request in flight, so concurrency is the -clients knob and
throughput is demand-driven. Reports QPS, the latency quantile ladder and
per-version hit counts as JSON.

Exit codes:
  0  load completed
  1  runtime failure (gateway unreachable, every request failing)
  2  bad command line
  3  interrupted by SIGINT/SIGTERM before the load completed
`

func main() { cli.Main(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := cli.NewFlagSet("marl-loadgen", usage, stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:9500", "marl-serve address")
		clients    = fs.Int("clients", 8, "concurrent closed-loop clients")
		duration   = fs.Duration("duration", 10*time.Second, "how long to drive load")
		encoding   = fs.String("encoding", "json", "request encoding: json or binary")
		pinVersion = fs.Uint64("pin-version", 0, "pin every request to this policy version (0: unpinned)")
		seed       = fs.Int64("seed", 1, "observation-stream seed (per-client streams derive from it)")
		timeout    = fs.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
		warmup     = fs.Duration("warmup", 0, "drive load this long before measuring (excluded from the report)")
		reportPath = fs.String("report", "", "write the JSON report here (empty: stdout only)")
	)
	obs := cli.Observe(fs, cli.Role{
		Proc: "marl-loadgen", SampleUnit: "responses that carry trace context", SampleDefault: 1,
		NoMetricsAddr: true,
	})
	if code, done := cli.Parse(fs, args, false); done {
		return code
	}

	if *clients < 1 || *duration <= 0 {
		fmt.Fprintln(stderr, "-clients must be ≥1 and -duration > 0")
		return cli.ExitUsage
	}
	if *encoding != "json" && *encoding != "binary" {
		fmt.Fprintf(stderr, "unknown encoding %q (want json or binary)\n", *encoding)
		return cli.ExitUsage
	}
	if code := obs.Start(stdout, stderr); code != cli.ExitOK {
		return code
	}
	defer func() { code = obs.Close(code) }()
	tracer := obs.Tracer

	base := "http://" + *addr
	if len(*addr) > 7 && ((*addr)[:7] == "http://" || (len(*addr) > 8 && (*addr)[:8] == "https://")) {
		base = *addr
	}

	// The serving shape comes from /statz, so the generator needs no -env
	// flag and can never disagree with the policy about widths.
	st, err := fetchStatz(base, *timeout)
	if err != nil {
		fmt.Fprintln(stderr, "fetching serving shape:", err)
		return cli.ExitError
	}
	if !st.Ready {
		fmt.Fprintln(stderr, "gateway is not ready (no policy installed); start marl-serve against a publishing policyd first")
		return cli.ExitError
	}
	fmt.Fprintf(stdout, "target %s: serving v%d (%d agents, obs %v → %d actions)\n", base, st.Version, st.Agents, st.ObsDims, st.ActDim)

	actURL := base + serve.PathAct
	if *pinVersion > 0 {
		actURL += "?version=" + strconv.FormatUint(*pinVersion, 10)
	}

	lat := telemetry.NewHistogram(nil)
	var mu sync.Mutex
	versionHits := map[uint64]uint64{}
	var requests, errors uint64

	deadline := time.Now().Add(*warmup + *duration)
	measureFrom := time.Now().Add(*warmup)

	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed ^ int64(c+1)*0x9E3779B9))
			httpc := &http.Client{Timeout: *timeout}
			obs := make([][]float64, len(st.ObsDims))
			for i, w := range st.ObsDims {
				obs[i] = make([]float64, w)
			}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				for _, row := range obs {
					for j := range row {
						row[j] = rng.NormFloat64()
					}
				}
				start := time.Now()
				version, err := postAct(httpc, actURL, *encoding, obs, tracer, start)
				elapsed := time.Since(start)
				if start.Before(measureFrom) {
					continue
				}
				mu.Lock()
				requests++
				if err != nil {
					errors++
				} else {
					versionHits[version]++
				}
				mu.Unlock()
				if err == nil {
					lat.Observe(elapsed.Seconds())
				}
			}
		}(c)
	}
	wg.Wait()
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "\nsignal: load abandoned")
		return cli.ExitInterrupted
	}

	if requests == 0 || errors == requests {
		fmt.Fprintf(stderr, "no successful requests (%d sent, %d errored)\n", requests, errors)
		return cli.ExitError
	}

	snap := lat.Snapshot()
	rep := report{
		Target:     base,
		Clients:    *clients,
		DurationS:  duration.Seconds(),
		Encoding:   *encoding,
		PinVersion: *pinVersion,
		Requests:   requests,
		Errors:     errors,
		QPS:        float64(requests-errors) / duration.Seconds(),
		P50Ms:      snap.P50 * 1e3,
		P90Ms:      snap.P90 * 1e3,
		P99Ms:      snap.P99 * 1e3,
		P999Ms:     snap.P999 * 1e3,
		MeanMs:     snap.Sum / float64(snap.Count) * 1e3,
		Versions:   map[string]uint64{},
	}
	var versions []uint64
	for v := range versionHits {
		versions = append(versions, v)
		rep.Versions[strconv.FormatUint(v, 10)] = versionHits[v]
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitError
	}
	fmt.Fprintln(stdout, string(out))
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "writing report:", err)
			return cli.ExitError
		}
	}
	for _, v := range versions {
		fmt.Fprintf(stdout, "version %d served %d requests (%.1f%%)\n", v, versionHits[v], 100*float64(versionHits[v])/float64(requests-errors))
	}
	return cli.ExitOK
}

// report is the loadgen's JSON output document.
type report struct {
	Target     string            `json:"target"`
	Clients    int               `json:"clients"`
	DurationS  float64           `json:"duration_sec"`
	Encoding   string            `json:"encoding"`
	PinVersion uint64            `json:"pin_version,omitempty"`
	Requests   uint64            `json:"requests"`
	Errors     uint64            `json:"errors"`
	QPS        float64           `json:"qps"`
	MeanMs     float64           `json:"mean_ms"`
	P50Ms      float64           `json:"p50_ms"`
	P90Ms      float64           `json:"p90_ms"`
	P99Ms      float64           `json:"p99_ms"`
	P999Ms     float64           `json:"p999_ms"`
	Versions   map[string]uint64 `json:"versions"`
}

// fetchStatz reads the gateway's serving shape.
func fetchStatz(base string, timeout time.Duration) (*serve.Statz, error) {
	httpc := &http.Client{Timeout: timeout}
	resp, err := httpc.Get(base + serve.PathStatz)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statz answered %d", resp.StatusCode)
	}
	var st serve.Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// postAct sends one request and returns the serving version that answered.
// A response carrying trace context gets an after-the-fact client span
// parented on it — the loadgen's row in a merged multi-process trace.
func postAct(httpc *http.Client, url, encoding string, obs [][]float64, tracer *trace.Tracer, start time.Time) (uint64, error) {
	var body []byte
	contentType := "application/json"
	if encoding == "binary" {
		body = serve.EncodeObsFrame(nil, obs)
		contentType = "application/octet-stream"
	} else {
		var err error
		body, err = json.Marshal(serve.ActRequest{Obs: obs})
		if err != nil {
			return 0, err
		}
	}
	resp, err := httpc.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("act answered %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var version uint64
	if encoding == "binary" {
		version, _, err = serve.DecodeActReply(data)
		if err != nil {
			return 0, err
		}
	} else {
		var reply serve.ActReply
		if err := json.Unmarshal(data, &reply); err != nil {
			return 0, err
		}
		version = reply.Version
	}
	if pctx, ok := trace.ParseHeader(resp.Header.Get(trace.HeaderName)); ok {
		if sp := tracer.StartSpanAt(pctx, "act-rpc", start); sp.Valid() {
			sp.EndArg("version", int64(version))
		}
	}
	return version, nil
}
