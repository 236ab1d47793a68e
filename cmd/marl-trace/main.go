// Command marl-trace captures, merges, and analyzes the distributed traces
// the loop's processes record: each source is a /tracez endpoint (or a file
// written by -trace-out) serving Chrome-trace JSON, and spans carry their
// trace/span/parent IDs in event args, so captures from N processes stitch
// back into end-to-end traces of the actor → replayd → learner → policyd
// loop.
//
// Usage:
//
//	marl-trace -o merged.json \
//	  http://127.0.0.1:9090/tracez http://127.0.0.1:9300/tracez \
//	  http://127.0.0.1:9400/tracez learner-trace.json
//
// The merged file opens directly in Perfetto / chrome://tracing (each
// source becomes one process row). The report prints how many traces span
// how many processes, the widest trace's process chain, and a per-update
// critical-path breakdown (per span name: count, total, mean, share of
// update time). -require-procs gates CI on cross-process stitching.
//
// Exit codes:
//
//	0  report produced (and all requested gates passed)
//	1  runtime failure (unreachable source, unparseable capture)
//	2  bad command line
//	4  the -require-procs gate failed
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"marlperf/internal/cli"
	"marlperf/internal/trace"
)

const usage = `Usage: marl-trace [flags] <source>...

Each source is a /tracez URL (http://host:port/tracez) or a Chrome-trace
JSON file written by a -trace-out flag. Captures are merged by the
trace/span IDs in event args; the report breaks down per-update critical
paths and verifies cross-process stitching.
`

func main() { cli.Main(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("marl-trace", usage, stderr)
	var (
		out      = fs.String("o", "", "write the merged Chrome trace JSON here (opens in Perfetto)")
		reqProcs = fs.Int("require-procs", 0, "fail (exit 4) unless at least one trace spans this many distinct processes")
		timeout  = fs.Duration("timeout", 5*time.Second, "HTTP timeout per capture")
	)
	if code, done := cli.Parse(fs, args, true); done {
		return code
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "need at least one /tracez URL or trace file")
		return cli.ExitUsage
	}

	client := &http.Client{Timeout: *timeout}
	var spans []span
	merged := trace.ChromeTrace{DisplayTimeUnit: "ms"}
	for i, src := range fs.Args() {
		ct, err := loadSource(ctx, client, src)
		if err != nil {
			fmt.Fprintf(stderr, "capturing %s: %v\n", src, err)
			return cli.ExitError
		}
		// Every source gets its own pid row in the merged view. The span
		// identity lives in args, so the remap is display-only.
		pid := i + 1
		n := 0
		named := false
		for _, ev := range ct.TraceEvents {
			ev.Pid = pid
			if ev.Ph == "M" {
				named = named || ev.Name == "process_name"
				merged.TraceEvents = append(merged.TraceEvents, ev)
				continue
			}
			if ev.Ph != "X" {
				merged.TraceEvents = append(merged.TraceEvents, ev)
				continue
			}
			merged.TraceEvents = append(merged.TraceEvents, ev)
			if sp, ok := eventSpan(ev); ok {
				spans = append(spans, sp)
				n++
			}
		}
		if !named {
			merged.TraceEvents = append(merged.TraceEvents, trace.ChromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": src},
			})
		}
		fmt.Fprintf(stdout, "%-44s %6d spans\n", src, n)
	}

	if *out != "" {
		if err := writeMerged(*out, merged); err != nil {
			fmt.Fprintln(stderr, "writing merged trace:", err)
			return cli.ExitError
		}
		fmt.Fprintf(stdout, "merged trace written to %s (%d events)\n", *out, len(merged.TraceEvents))
	}

	traces := groupTraces(spans)
	reportStitching(stdout, traces)
	reportBreakdown(stdout, traces)

	if *reqProcs > 0 {
		widest := 0
		for _, tr := range traces {
			if n := len(tr.procs); n > widest {
				widest = n
			}
		}
		if widest < *reqProcs {
			fmt.Fprintf(stderr, "FAIL: no trace spans %d processes (widest: %d)\n", *reqProcs, widest)
			return cli.ExitGate
		}
		fmt.Fprintf(stdout, "OK: at least one trace spans ≥%d processes\n", *reqProcs)
	}
	return cli.ExitOK
}

// span is one parsed ph "X" event.
type span struct {
	traceID, spanID, parentID uint64
	name, proc                string
	ts, dur                   float64 // microseconds
}

// eventSpan extracts the span identity from a complete event's args.
func eventSpan(ev trace.ChromeEvent) (span, bool) {
	tid, ok1 := argID(ev.Args, trace.ArgTrace)
	sid, ok2 := argID(ev.Args, trace.ArgSpan)
	if !ok1 || !ok2 {
		return span{}, false
	}
	pid, _ := argID(ev.Args, trace.ArgParent)
	proc, _ := ev.Args[trace.ArgProc].(string)
	return span{
		traceID: tid, spanID: sid, parentID: pid,
		name: ev.Name, proc: proc, ts: ev.Ts, dur: ev.Dur,
	}, true
}

func argID(args map[string]any, key string) (uint64, bool) {
	s, ok := args[key].(string)
	if !ok {
		return 0, false
	}
	return trace.ParseID(s)
}

// fetch reads one source: an http(s) URL or a file.
func fetch(ctx context.Context, client *http.Client, src string) ([]byte, error) {
	if !strings.HasPrefix(src, "http://") && !strings.HasPrefix(src, "https://") {
		return os.ReadFile(src)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, src, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server answered %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// loadSource fetches one capture: a /tracez endpoint or a JSON file.
func loadSource(ctx context.Context, client *http.Client, src string) (trace.ChromeTrace, error) {
	data, err := fetch(ctx, client, src)
	if err != nil {
		return trace.ChromeTrace{}, err
	}
	return trace.ParseChrome(data)
}

func writeMerged(path string, ct trace.ChromeTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(ct); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceGroup is every captured span sharing one trace ID.
type traceGroup struct {
	id    uint64
	spans []span
	procs map[string]bool
	root  *span // the span whose parent is outside the capture, if unique
}

func groupTraces(spans []span) []*traceGroup {
	byID := make(map[uint64]*traceGroup)
	for _, sp := range spans {
		g := byID[sp.traceID]
		if g == nil {
			g = &traceGroup{id: sp.traceID, procs: make(map[string]bool)}
			byID[g.id] = g
		}
		g.spans = append(g.spans, sp)
		if sp.proc != "" {
			g.procs[sp.proc] = true
		}
	}
	out := make([]*traceGroup, 0, len(byID))
	for _, g := range byID {
		ids := make(map[uint64]bool, len(g.spans))
		for _, sp := range g.spans {
			ids[sp.spanID] = true
		}
		for i := range g.spans {
			if !ids[g.spans[i].parentID] {
				if g.root != nil {
					g.root = nil // ambiguous: partial capture with several orphans
					break
				}
				g.root = &g.spans[i]
			}
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].procs) != len(out[j].procs) {
			return len(out[i].procs) > len(out[j].procs)
		}
		return out[i].id < out[j].id
	})
	return out
}

// reportStitching summarizes how widely traces stitched across processes.
func reportStitching(stdout io.Writer, traces []*traceGroup) {
	if len(traces) == 0 {
		fmt.Fprintln(stdout, "\nno spans captured")
		return
	}
	byWidth := make(map[int]int)
	for _, g := range traces {
		byWidth[len(g.procs)]++
	}
	widths := make([]int, 0, len(byWidth))
	for w := range byWidth {
		widths = append(widths, w)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(widths)))
	fmt.Fprintf(stdout, "\n%d traces captured:\n", len(traces))
	for _, w := range widths {
		fmt.Fprintf(stdout, "  %4d spanning %d process(es)\n", byWidth[w], w)
	}
	widest := traces[0] // sorted widest-first
	procs := make([]string, 0, len(widest.procs))
	for p := range widest.procs {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	rootName := "?"
	if widest.root != nil {
		rootName = widest.root.name
	}
	fmt.Fprintf(stdout, "widest trace %s: %d spans, root %q, processes: %s\n",
		trace.FormatID(widest.id), len(widest.spans), rootName, strings.Join(procs, ", "))
}

// reportBreakdown prints the per-update critical-path table: for traces
// rooted at an "update" span, how the loop's time splits per span name.
func reportBreakdown(stdout io.Writer, traces []*traceGroup) {
	type agg struct {
		name  string
		count int
		total float64 // microseconds
	}
	byName := make(map[string]*agg)
	updates := 0
	var rootTotal float64
	for _, g := range traces {
		if g.root == nil || g.root.name != "update" {
			continue
		}
		updates++
		rootTotal += g.root.dur
		for _, sp := range g.spans {
			a := byName[sp.name]
			if a == nil {
				a = &agg{name: sp.name}
				byName[sp.name] = a
			}
			a.count++
			a.total += sp.dur
		}
	}
	if updates == 0 {
		fmt.Fprintln(stdout, "\nno update-rooted traces captured (learner not among the sources?)")
		return
	}
	rows := make([]*agg, 0, len(byName))
	for _, a := range byName {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].total > rows[j].total })
	fmt.Fprintf(stdout, "\nper-update critical path over %d traced update(s) (total %.2f ms):\n", updates, rootTotal/1e3)
	fmt.Fprintf(stdout, "  %-24s %8s %12s %12s %7s\n", "span", "count", "total ms", "mean µs", "share")
	for _, a := range rows {
		share := 0.0
		if rootTotal > 0 {
			share = 100 * a.total / rootTotal
		}
		fmt.Fprintf(stdout, "  %-24s %8d %12.2f %12.1f %6.1f%%\n",
			a.name, a.count, a.total/1e3, a.total/float64(a.count), share)
	}
}
