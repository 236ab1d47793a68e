// Command marl-bench regenerates the paper's tables and figures. Each
// experiment prints the measured rows next to the paper's reference values
// so shape agreement can be checked directly.
//
// Usage:
//
//	marl-bench -list
//	marl-bench -exp fig8 [-scale small|full]
//	marl-bench -exp all  [-scale small|full]
//	marl-bench -exp fig2,fig4 -format json     # one JSON line per table row
//	marl-bench -exp all -metrics-addr :9090   # watch progress, grab pprof
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"marlperf/internal/cli"
	"marlperf/internal/experiments"
)

const usage = `Usage: marl-bench [flags]

Regenerates the paper's tables and figures: each experiment prints the
measured rows next to the paper's reference values. -list names them.
-format json prints one machine-readable line per table row instead.

Exit codes:
  0  every requested experiment completed
  1  runtime failure
  2  bad command line
  3  interrupted by SIGINT/SIGTERM; the experiment in flight was abandoned
`

func main() { cli.Main(run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := cli.NewFlagSet("marl-bench", usage, stderr)
	var (
		exp     = fs.String("exp", "", "experiment ID (table1, fig2…fig14, ablation-*) or 'all'")
		scale   = fs.String("scale", "small", "measurement scale: small or full")
		list    = fs.Bool("list", false, "list available experiments and exit")
		format  = fs.String("format", "text", "output format: text, md or json (one line per table row)")
		workers = fs.Int("workers", 0, "update-stage worker pool size (1 = one core; 0: keep the scale's default, which is 1); results are seed-identical for any value")
	)
	// Opt-in live observability: experiment progress on /metrics, and —
	// the main draw for long `full`-scale runs — CPU/heap profiles on
	// /debug/pprof. No spans: the experiments build their own trainers.
	obs := cli.Observe(fs, cli.Role{RunLogRecord: "record per completed experiment"})
	if code, done := cli.Parse(fs, args, false); done {
		return code
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "  %-20s %s\n", r.ID, r.Description)
		}
		if *exp == "" && !*list {
			fmt.Fprintln(stdout, "\nrun one with: marl-bench -exp <id> [-scale small|full]")
		}
		return cli.ExitOK
	}

	s, err := experiments.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return cli.ExitUsage
	}
	if *format != "text" && *format != "md" && *format != "json" {
		fmt.Fprintf(stderr, "unknown format %q (want text, md or json)\n", *format)
		return cli.ExitUsage
	}
	if *workers > 0 {
		s.UpdateWorkers = *workers
	}

	var runners []*experiments.Runner
	if *exp == "all" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			r := experiments.Get(id)
			if r == nil {
				fmt.Fprintf(stderr, "unknown experiment %q; use -list\n", id)
				return cli.ExitUsage
			}
			runners = append(runners, r)
		}
	}

	if code := obs.Start(stderr, stderr); code != cli.ExitOK {
		return code
	}
	defer func() { code = obs.Close(code) }()
	reg := obs.Registry
	reg.SetHelp("marl_bench_experiment_running", "1 while the labelled experiment runs, 0 once it finished.")
	reg.SetHelp("marl_bench_experiments_completed_total", "Experiments finished by this process.")
	reg.SetHelp("marl_bench_experiment_seconds", "Wall time per completed experiment.")

	for _, r := range runners {
		running := reg.Gauge("marl_bench_experiment_running", "exp", r.ID)
		running.Set(1)
		start := time.Now()
		// An experiment takes no context; run it beside the wait so a
		// signal still closes the run log and exits.
		done := make(chan *experiments.Result, 1)
		go func() { done <- r.Run(s) }()
		var res *experiments.Result
		select {
		case res = <-done:
		case <-ctx.Done():
			fmt.Fprintf(stderr, "\nsignal: abandoning %s\n", r.ID)
			return cli.ExitInterrupted
		}
		elapsed := time.Since(start)
		running.Set(0)
		reg.Counter("marl_bench_experiments_completed_total").Inc()
		reg.Histogram("marl_bench_experiment_seconds", nil).Observe(elapsed.Seconds())
		obs.Log(experimentRecord{
			Event: "experiment", Time: time.Now(),
			ID: r.ID, Scale: s.Name, ElapsedSec: elapsed.Seconds(),
		})
		obs.FlushLog()
		completed := fmt.Sprintf("[%s completed in %v]\n", r.ID, elapsed.Round(time.Millisecond))
		var out bytes.Buffer
		var err error
		switch *format {
		case "json":
			err = res.WriteJSON(&out, s)
			// stdout carries nothing but result lines.
			fmt.Fprint(stderr, completed)
		case "md":
			fmt.Fprintf(&out, "## %s — %s (scale=%s)\n\n%s\n%s\n", r.ID, r.Description, s.Name, res.Markdown(), completed)
		default:
			fmt.Fprintf(&out, "### %s — %s (scale=%s)\n%s\n%s\n", r.ID, r.Description, s.Name, res.String(), completed)
		}
		if err == nil {
			_, err = stdout.Write(out.Bytes())
		}
		if err != nil {
			fmt.Fprintf(stderr, "writing %s: %v\n", r.ID, err)
			return cli.ExitError
		}
	}
	return cli.ExitOK
}

// experimentRecord is one -runlog line, emitted per completed experiment.
type experimentRecord struct {
	Event      string    `json:"event"` // always "experiment"
	Time       time.Time `json:"time"`
	ID         string    `json:"id"`
	Scale      string    `json:"scale"`
	ElapsedSec float64   `json:"elapsed_sec"`
}
