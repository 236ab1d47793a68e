package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one declared metric. BENCHMARK.json carries the same
// inventory; bench_test.go checks that the two agree.
type metricDef struct {
	name, unit string
}

// endToEnd lists what a user of the trainer sees. Every workload reports
// all five from the untraced run.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the single-layer metrics of the traced run. A layer that
// does no work in a workload reports 0 there — that absence is itself the
// separation the workloads were chosen for.
var perLayer = []metricDef{
	{"core.update_ms", "ms"},
	{"core.update_self_ms", "ms"},
	{"core.phase_sampling_share", "ratio"},
	{"core.phase_targetq_share", "ratio"},
	{"core.phase_loss_share", "ratio"},
	{"core.checkpoint_save_ms", "ms"},
	{"tensor.matmul_gflops", "gflop/s"},
	{"tensor.matmul_transb_gflops", "gflop/s"},
	{"nn.critic_fwd_bwd_ms", "ms"},
	{"replay.sample_uniform_rows_per_s", "1/s"},
	{"replay.sample_locality_rows_per_s", "1/s"},
	{"replay.add_rows_per_s", "1/s"},
	{"expstore.gather_rows_per_s", "1/s"},
	{"expstore.append_rows_per_s", "1/s"},
	{"expstore.sample_local_rows_per_s", "1/s"},
	{"expstore.provider_busy_share", "ratio"},
	{"f64le.put_gb_per_s", "GB/s"},
	{"expshard.view_map_ns", "ns"},
	{"expserve.sample_client_ms", "ms"},
	{"expserve.sample_server_ms", "ms"},
	{"expserve.sample_wire_ms", "ms"},
	{"expserve.append_client_ms", "ms"},
	{"expserve.append_server_ms", "ms"},
	{"expserve.append_wire_ms", "ms"},
	{"expserve.rpcs_per_op", "count"},
	{"expserve.sample_bytes_per_op", "B"},
	{"expserve.append_bytes_per_op", "B"},
	{"expserve.retries", "count"},
	{"expserve.remote_vs_local_ratio", "ratio"},
	{"net.loopback_rtt_us", "us"},
	{"rollout.step_ms", "ms"},
	{"rollout.env_steps_per_s", "1/s"},
	{"rollout.sink_share", "ratio"},
	{"mpe.env_step_us", "us"},
	{"policysync.publish_ms", "ms"},
	{"policysync.fetch_ms", "ms"},
	{"policysync.snapshot_bytes", "B"},
	{"policysync.encode_mb_per_s", "MB/s"},
	{"policysync.publish_to_act_ms", "ms"},
	{"serve.act_p50_us", "us"},
	{"serve.act_p95_us", "us"},
	{"serve.gateway_act_us", "us"},
	{"serve.install_ms", "ms"},
	{"loop.step_to_sampleable_ms", "ms"},
	{"loop.share.actor", "ratio"},
	{"loop.share.ingest", "ratio"},
	{"loop.share.sample", "ratio"},
	{"loop.share.learner", "ratio"},
	{"loop.share.policy", "ratio"},
	{"loop.share.serve", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.span_coverage", "ratio"},
	{"bench.op_p95_ms", "ms"},
	{"bench.alloc_kb_per_op", "KB"},
	{"bench.gc_cycles", "count"},
	{"bench.gc_pause_ms", "ms"},
}

// layerSet collects per-layer values by name. set panics on a name that is
// not declared, so a typo cannot silently drop a metric.
type layerSet map[string]float64

var perLayerUnits = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

func (l layerSet) set(name string, v float64) {
	if _, ok := perLayerUnits[name]; !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	l[name] = v
}

// median and percentile work on a copy; percentile is nearest-rank.
func median(v []float64) float64 { return percentile(v, 0.5) }

func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ms(ns float64) float64 { return ns / 1e6 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
