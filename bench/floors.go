package main

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"marlperf/internal/core"
	"marlperf/internal/expshard"
	"marlperf/internal/expstore"
	"marlperf/internal/f64le"
	"marlperf/internal/nn"
	"marlperf/internal/policysync"
	"marlperf/internal/replay"
	"marlperf/internal/serve"
	"marlperf/internal/tensor"
)

// A floor is a micro-run that calls one layer's public function directly,
// with nothing else in the way: what that layer can do on this host at the
// shape the workload uses. A workload's end-to-end number is then read
// against the floors of the layers it crosses. Floors run after the
// workload's checks, so they may disturb its state.

// floorSet is where floors report, and how long each may measure.
type floorSet struct {
	layerSet
	budget time.Duration
}

// floorBudget is one floor's measuring time in a real run; -short runs use
// shortFloorBudget.
const (
	floorBudget      = 300 * time.Millisecond
	shortFloorBudget = 5 * time.Millisecond
)

func newFloorSet(m layerSet, short bool) floorSet {
	if short {
		return floorSet{m, shortFloorBudget}
	}
	return floorSet{m, floorBudget}
}

// time calls fn repeatedly for about the budget and returns the median
// seconds per call.
func (f floorSet) time(fn func()) float64 {
	fn() // first call pays for lazily built scratch
	var calls []float64
	start := time.Now()
	for time.Since(start) < f.budget || len(calls) < 5 {
		t := time.Now()
		fn()
		calls = append(calls, time.Since(t).Seconds())
	}
	return median(calls)
}

func randMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	m.RandUniform(rng, -1, 1)
	return m
}

// floorKernels times the dense kernels and one critic step at the critic's
// shapes: batch × joint-dim × 64.
func floorKernels(m floorSet, jointDim, batch int, seed int64) {
	const hidden = 64
	rng := rand.New(rand.NewSource(seed))
	flop := 2 * float64(batch) * float64(jointDim) * hidden

	x, w, y := randMatrix(rng, batch, jointDim), randMatrix(rng, jointDim, hidden), tensor.New(batch, hidden)
	m.set("tensor.matmul_gflops", flop/m.time(func() { tensor.MatMul(y, x, w) })/1e9)

	g, back := randMatrix(rng, batch, hidden), tensor.New(batch, jointDim)
	m.set("tensor.matmul_transb_gflops", flop/m.time(func() { tensor.MatMulTransB(back, g, w) })/1e9)

	critic := nn.NewMLP(rng, jointDim, hidden, hidden, 1)
	opt := nn.NewAdam(critic, 0.01)
	grad := tensor.New(batch, 1)
	grad.Fill(1 / float64(batch))
	m.set("nn.critic_fwd_bwd_ms", 1e3*m.time(func() {
		critic.Forward(x)
		critic.ZeroGrads()
		critic.Backward(grad)
		critic.ClipGradients(0.5)
		opt.Step()
	}))
}

// floorCheckpoint times serialising the trainer's learned state to memory:
// the stall one checkpoint costs the training loop.
func floorCheckpoint(m floorSet, tr *core.Trainer) {
	var buf bytes.Buffer
	m.set("core.checkpoint_save_ms", 1e3*m.time(func() {
		buf.Reset()
		_ = tr.SaveCheckpoint(&buf) // writes to memory cannot fail
	}))
}

// floorReplay times the local buffer's sample-and-gather and add paths on
// the trainer's own prefilled buffer.
func floorReplay(m floorSet, tr *core.Trainer, seed int64) {
	buf, batch := tr.Buffer(), tr.Config().BatchSize
	spec := buf.Spec()
	rng := rand.New(rand.NewSource(seed))
	dst := newBatches(spec, batch)
	var sample replay.Sample

	uniform := replay.NewUniformSampler(buf)
	m.set("replay.sample_uniform_rows_per_s", float64(batch)/m.time(func() {
		uniform.SampleInto(&sample, batch, rng)
		buf.GatherAll(sample.Indices, dst)
	}))
	cfg := tr.Config()
	locality := replay.NewLocalitySampler(buf, cfg.Neighbors, cfg.Refs)
	m.set("replay.sample_locality_rows_per_s", float64(batch)/m.time(func() {
		locality.SampleInto(&sample, batch, rng)
		buf.GatherAll(sample.Indices, dst)
	}))

	pool := newRowPool(spec, 256, rng)
	next := 0
	m.set("replay.add_rows_per_s", float64(pool.len())/m.time(func() {
		for r := 0; r < pool.len(); r++ {
			buf.Add(pool.obs[next], pool.act[next], pool.rew[next], pool.nxt[next], pool.done[next])
			next = (next + 1) % pool.len()
		}
	}))
}

// floorStore times the row store and codec under the experience servers:
// gather-and-encode and append on a shard's ring, a whole local draw on
// local (the single-store reference the remote path is compared with), the
// little-endian encode at the sample payload size, and the shard view's
// index mapping. It returns the local draw rate in rows/s.
func floorStore(m floorSet, f *fabric, local *expstore.Ring, batch int, seed int64) float64 {
	ring := f.rings[0]
	layout := ring.Layout()
	stride := layout.Stride()
	rng := rand.New(rand.NewSource(seed))

	idx := make([]int, batch)
	payload := make([]byte, batch*stride*8)
	m.set("expstore.gather_rows_per_s", float64(batch)/m.time(func() {
		for i := range idx {
			idx[i] = rng.Intn(ring.Len())
		}
		ring.GatherEncodeLE(idx, payload)
	}))

	scratch := expstore.NewRing(envSpec(4 * batch))
	row := make([]float64, stride)
	for i := range row {
		row[i] = rng.Float64()
	}
	m.set("expstore.append_rows_per_s", float64(batch)/m.time(func() {
		for i := 0; i < batch; i++ {
			_ = scratch.AppendRow(row) // a ring append cannot fail
		}
	}))

	packed := make([]float64, batch*stride)
	draw := int64(0)
	localRate := float64(batch) / m.time(func() {
		draw++
		_ = local.SamplePacked(samplePlan, batch, draw, idx, packed) // idx is sized to the draw
	})
	m.set("expstore.sample_local_rows_per_s", localRate)

	m.set("f64le.put_gb_per_s", float64(len(payload))/m.time(func() { f64le.Put(payload, packed) })/1e9)

	snap := f.client.Snapshot()
	stats := make([]expshard.GroupStat, len(f.rings))
	var rows int64
	for gi, r := range f.rings {
		stats[gi] = expshard.GroupStat{Rows: uint64(r.Len()), Total: r.Total(), Live: true}
		rows += int64(r.Len())
	}
	if view, err := expshard.NewView(snap.Partitions, 0, snap.Part2Group, stats); err == nil && rows > 0 {
		m.set("expshard.view_map_ns", 1e9*m.time(func() {
			for i := range idx {
				view.Map(int64(idx[i]) % rows)
			}
		})/float64(batch))
	}
	return localRate
}

// floorLoopback times a bare HTTP round trip on loopback to a handler that
// does nothing but write replyBytes back: the lower bound of any RPC's wire
// time at that payload size.
func floorLoopback(m floorSet, replyBytes int) {
	reply := make([]byte, replyBytes)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		_, _ = w.Write(reply)
	}))
	defer srv.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	req := make([]byte, 32)
	m.set("net.loopback_rtt_us", 1e6*m.time(func() {
		resp, err := client.Post(srv.URL, "application/octet-stream", bytes.NewReader(req))
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}))
}

// floorEnv times one environment step.
func floorEnv(m floorSet, seed int64) {
	env := newEnv()
	rng := rand.New(rand.NewSource(seed))
	env.Reset(rng)
	actions := make([]int, env.NumAgents())
	const steps = 100
	m.set("mpe.env_step_us", 1e6*m.time(func() {
		for s := 0; s < steps; s++ {
			for a := range actions {
				actions[a] = rng.Intn(env.NumActions())
			}
			env.Step(actions)
		}
	})/steps)
}

// floorPolicy times encoding the learner's actors into a policy snapshot.
func floorPolicy(m floorSet, tr *core.Trainer) {
	var frame []byte
	per := m.time(func() {
		frame, _ = policysync.EncodeSnapshot(frame[:0], uint64(tr.UpdateCount()), tr.ActorNetworks())
	})
	m.set("policysync.snapshot_bytes", float64(len(frame)))
	m.set("policysync.encode_mb_per_s", float64(len(frame))/per/1e6)
}

// floorGateway times Gateway.Act called in-process: /act without HTTP.
func floorGateway(m floorSet, gw *serve.Gateway, spec replay.Spec, seed int64) {
	obs := randomObs(spec, rand.New(rand.NewSource(seed)))
	m.set("serve.gateway_act_us", 1e6*m.time(func() { _, _ = gw.Act(0, obs) }))
}
