package marlperf

// Experience-service benchmark: the cost of drawing a mini-batch through
// the replay path, local (in-process expstore sampling) versus remote
// (the full expserve HTTP round trip, learner-side selection and a
// server-side gather through a one-group fabric, what a plain -replay-addr
// builds), swept across batch
// sizes for both plan-able strategies. Remote cells run in two
// configurations: a single-connection synchronous client (the
// worst-case serial path) and a striped pipelined client that overlaps
// several prefetched sample RPCs (what a remote learner runs, -sample-conns
// wide). The grid is written to BENCH_replay.json with the same
// provenance stamps as BENCH_update.json so sweeps from different
// machines and revisions stay comparable.

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"marlperf/internal/expserve"
	"marlperf/internal/expshard"
	"marlperf/internal/expstore"
	"marlperf/internal/replay"
)

// replaySweepRow is one (plan, batch, mode, conns, prefetch) cell, written
// to BENCH_replay.json for machine consumption.
type replaySweepRow struct {
	Plan        string  `json:"plan"`
	Batch       int     `json:"batch"`
	Mode        string  `json:"mode"`
	SampleConns int     `json:"sample_conns"`
	Prefetch    bool    `json:"prefetch"`
	Shards      int     `json:"shards"`
	NsPerOp     float64 `json:"ns_per_op"`
	Iters       int     `json:"iters"`
	RowsPerSec  float64 `json:"rows_per_sec"`
}

// benchReplaySpec is the transition shape the sweep samples: a mid-size
// multi-agent workload (6 agents) over a prefilled 16Ki-row window.
func benchReplaySpec() replay.Spec {
	return replay.Spec{
		NumAgents: 6,
		ObsDims:   []int{26, 26, 26, 26, 26, 26},
		ActDim:    5,
		Capacity:  1 << 14,
	}
}

// benchReplayFill ships rows synthetic transitions into the fabric from a
// single producer, so the fabric view is balanced (the production shape).
func benchReplayFill(b *testing.B, fabric *expserve.Fabric, spec replay.Spec, rows int) {
	b.Helper()
	filler, err := expserve.NewShardedSink(fabric, "filler", spec)
	if err != nil {
		b.Fatal(err)
	}
	filler.SetMaxBatchRows(4096)
	obs, act, rew, nxt, done := benchShardRow(spec, rand.New(rand.NewSource(5)))
	for i := 0; i < rows; i++ {
		if err := filler.Add(obs, act, rew, nxt, done); err != nil {
			b.Fatal(err)
		}
	}
	if err := filler.Flush(); err != nil {
		b.Fatal(err)
	}
}

// benchOneGroupFabric routes to the server at url the way a plain
// -replay-addr does — one group, one member — with the member client
// striped over conns connections.
func benchOneGroupFabric(b *testing.B, url string, conns int) *expserve.Fabric {
	b.Helper()
	groups, err := expshard.ParseSpec(url)
	if err != nil {
		b.Fatal(err)
	}
	fabric, err := expserve.NewFabric(groups, expserve.FabricOptions{
		Client: expserve.ClientOptions{Timeout: 30 * time.Second, Attempts: 1, JitterSeed: 1, Conns: conns},
	})
	if err != nil {
		b.Fatal(err)
	}
	return fabric
}

// benchOneGroupSource returns a source over benchOneGroupFabric with its
// stream view already frozen.
func benchOneGroupSource(b *testing.B, url string, spec replay.Spec, plan replay.SamplePlan, conns int) *expserve.ShardedSource {
	b.Helper()
	src, err := expserve.NewShardedSource(benchOneGroupFabric(b, url, conns), spec, plan)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := src.Len(); err != nil {
		b.Fatal(err)
	}
	return src
}

// newBenchFabric builds shards in-process replayd servers at R=1 behind
// a client fabric.
func newBenchFabric(b *testing.B, spec replay.Spec, shards int) *expserve.Fabric {
	b.Helper()
	var groups []expshard.Group
	for gi := 0; gi < shards; gi++ {
		id := expshard.DefaultGroupID(gi)
		srv, err := expserve.NewServer(expserve.ServerConfig{Provider: expstore.NewRing(spec), Spec: spec, ShardID: id, QueueDepth: 1024})
		if err != nil {
			b.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		b.Cleanup(func() { hs.Close(); srv.Close() })
		groups = append(groups, expshard.Group{ID: id, Members: []expshard.Member{{Addr: hs.URL}}})
	}
	fabric, err := expserve.NewFabric(groups, expserve.FabricOptions{
		Client: expserve.ClientOptions{Timeout: 30 * time.Second, Attempts: 4, BaseDelay: time.Millisecond, JitterSeed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	return fabric
}

// benchShardRow builds one transition of the sweep's shape.
func benchShardRow(spec replay.Spec, rng *rand.Rand) (obs, act [][]float64, rew []float64, nxt [][]float64, done []float64) {
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	for a := 0; a < spec.NumAgents; a++ {
		obs = append(obs, vec(spec.ObsDims[a]))
		act = append(act, vec(spec.ActDim))
		nxt = append(nxt, vec(spec.ObsDims[a]))
		rew = append(rew, rng.Float64())
		done = append(done, 0)
	}
	return
}

// pipeDepth is how many prefetched batches the pipelined remote cell keeps
// in flight per measured op — the per-update fan-out a multi-agent learner
// produces (one seed per agent) and the depth the striped client is tuned
// for.
const pipeDepth = 4

// BenchmarkExpServeSample sweeps mini-batch size × local-vs-remote for
// the uniform and locality plans and writes BENCH_replay.json. The
// local and remote cells draw identical batches for identical seeds (the
// determinism contract of the actor/learner split), so the delta is pure
// service overhead: framing, HTTP, and the copy across the socket.
func BenchmarkExpServeSample(b *testing.B) {
	spec := benchReplaySpec()
	ring := expstore.NewRing(spec)
	srv, err := expserve.NewServer(expserve.ServerConfig{Provider: ring, Spec: spec})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	benchReplayFill(b, benchOneGroupFabric(b, hs.URL, 1), spec, spec.Capacity)

	plans := []struct {
		name string
		plan replay.SamplePlan
	}{
		{"uniform", replay.SamplePlan{Strategy: replay.PlanUniform}},
		{"locality", replay.SamplePlan{Strategy: replay.PlanLocality, Neighbors: 16, Refs: 64}},
	}
	// The testing package re-invokes each sub-benchmark while calibrating
	// b.N; keep only the final (fully calibrated) measurement per cell.
	cells := make(map[string]replaySweepRow)
	var order []string
	record := func(name string, row replaySweepRow) {
		if _, seen := cells[name]; !seen {
			order = append(order, name)
		}
		cells[name] = row
	}
	for _, p := range plans {
		for _, batch := range []int{256, 1024, 4096} {
			dst := make([]*replay.AgentBatch, spec.NumAgents)
			for a := range dst {
				dst[a] = replay.NewAgentBatch(batch, spec.ObsDims[a], spec.ActDim)
			}

			localSrc, err := expstore.NewSource(ring, p.plan)
			if err != nil {
				b.Fatal(err)
			}
			syncSrc := benchOneGroupSource(b, hs.URL, spec, p.plan, 1)

			for _, mode := range []struct {
				name string
				src  replay.TransitionSource
			}{{"local", localSrc}, {"remote", syncSrc}} {
				name := p.name + "/" + benchName("batch", batch) + "/" + mode.name
				conns := 0
				if mode.name == "remote" {
					conns = 1
				}
				b.Run(name, func(b *testing.B) {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := mode.src.SampleBatch(batch, int64(i+1), dst); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					rps := 0.0
					if ns > 0 {
						rps = float64(batch) / (ns / 1e9)
					}
					record(name, replaySweepRow{
						Plan: p.name, Batch: batch, Mode: mode.name, SampleConns: conns,
						NsPerOp: ns, Iters: b.N, RowsPerSec: rps,
					})
				})
			}

			// Pipelined remote: a striped client with pipeDepth prefetched
			// sample RPCs in flight, consumed in announcement order — the
			// remote learner's configuration at -sample-conns pipeDepth. One measured
			// op covers pipeDepth batches, so ns_per_op is normalized per
			// batch to stay comparable with the synchronous cells.
			pf := expserve.NewPrefetchSource(benchOneGroupSource(b, hs.URL, spec, p.plan, pipeDepth), pipeDepth, nil)
			name := p.name + "/" + benchName("batch", batch) + "/remote-pipelined"
			b.Run(name, func(b *testing.B) {
				seeds := make([]int64, pipeDepth)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := range seeds {
						seeds[k] = int64(i*pipeDepth + k + 1)
					}
					pf.PrefetchBatch(batch, seeds)
					for _, seed := range seeds {
						if _, err := pf.SampleBatch(batch, seed, dst); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / pipeDepth
				rps := 0.0
				if ns > 0 {
					rps = float64(batch) / (ns / 1e9)
				}
				record(name, replaySweepRow{
					Plan: p.name, Batch: batch, Mode: "remote", SampleConns: pipeDepth, Prefetch: true,
					NsPerOp: ns, Iters: b.N, RowsPerSec: rps,
				})
			})
		}
	}
	// Sharded-fabric dimension: aggregate replicated ingest under
	// GOMAXPROCS concurrent producers across shards ∈ {1,2,4} (R=1), and
	// the same draw fanned in across shards ∈ {2,4} (the one-shard draw is
	// the "remote" cells above). The ingest cells carry the scaling gate —
	// 2-shard aggregate ingest must beat single-shard on multi-core because
	// each shard applies its sub-stream independently.
	for _, shards := range []int{1, 2, 4} {
		fabric := newBenchFabric(b, spec, shards)

		ingestName := "ingest/" + benchName("shards", shards)
		b.Run(ingestName, func(b *testing.B) {
			const chunk = 256
			var rows, ids atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := ids.Add(1)
				sink, err := expserve.NewShardedSink(fabric, fmt.Sprintf("bench-%d", id), spec)
				if err != nil {
					b.Error(err)
					return
				}
				sink.SetMaxBatchRows(1 << 20) // flush manually, once per chunk
				obs, act, rew, nxt, done := benchShardRow(spec, rand.New(rand.NewSource(id)))
				for pb.Next() {
					for r := 0; r < chunk; r++ {
						if err := sink.Add(obs, act, rew, nxt, done); err != nil {
							b.Error(err)
							return
						}
					}
					if err := sink.Flush(); err != nil {
						b.Error(err)
						return
					}
					rows.Add(chunk)
				}
			})
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			rps := 0.0
			if sec := b.Elapsed().Seconds(); sec > 0 {
				rps = float64(rows.Load()) / sec
			}
			record(ingestName, replaySweepRow{
				Plan: "ingest", Batch: chunk, Mode: "ingest", Shards: shards,
				NsPerOp: ns, Iters: b.N, RowsPerSec: rps,
			})
		})

		if shards == 1 {
			continue
		}
		// Sample cells draw from a fresh fill: the ingest cells' concurrent
		// producers leave an unbalanced view.
		sampleFabric := newBenchFabric(b, spec, shards)
		benchReplayFill(b, sampleFabric, spec, spec.Capacity/2)
		for _, p := range plans {
			src, err := expserve.NewShardedSource(sampleFabric, spec, p.plan)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := src.Len(); err != nil {
				b.Fatal(err)
			}
			const batch = 1024
			dst := make([]*replay.AgentBatch, spec.NumAgents)
			for a := range dst {
				dst[a] = replay.NewAgentBatch(batch, spec.ObsDims[a], spec.ActDim)
			}
			name := p.name + "/" + benchName("batch", batch) + "/" + benchName("sharded", shards)
			b.Run(name, func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := src.SampleBatch(batch, int64(i+1), dst); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				rps := 0.0
				if ns > 0 {
					rps = float64(batch) / (ns / 1e9)
				}
				record(name, replaySweepRow{
					Plan: p.name, Batch: batch, Mode: "remote-sharded", SampleConns: 1, Shards: shards,
					NsPerOp: ns, Iters: b.N, RowsPerSec: rps,
				})
			})
		}
	}

	if len(order) == 0 {
		return
	}
	rows := make([]replaySweepRow, 0, len(order))
	for _, name := range order {
		rows = append(rows, cells[name])
	}

	// Regression guard for the per-request realloc class of bug: remote
	// rows/sec must stay flat (within the calibration noise band) across
	// batch sizes — a path that re-grows multi-megabyte buffers per request
	// shows up as throughput collapsing at batch 4096. Only enforced on
	// calibrated runs; a -benchtime too short to iterate each cell at least
	// twice proves nothing.
	for _, plan := range []string{"uniform", "locality"} {
		var min, max float64
		calibrated := true
		for _, r := range rows {
			if r.Plan != plan || r.Mode != "remote" || r.Prefetch || r.SampleConns != 1 {
				continue
			}
			if r.Iters < 2 {
				calibrated = false
			}
			if min == 0 || r.RowsPerSec < min {
				min = r.RowsPerSec
			}
			if r.RowsPerSec > max {
				max = r.RowsPerSec
			}
		}
		if calibrated && min > 0 && max/min > 1.5 {
			b.Fatalf("%s remote rows/sec varies %.1fx across batch sizes (min %.0f, max %.0f); want flat within 1.5x — per-request buffer growth is back", plan, max/min, min, max)
		}
	}

	writeBenchFile(b, "BENCH_replay.json", "ExpServeSample", "ns/op", rows)
}
