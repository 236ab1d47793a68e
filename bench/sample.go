package main

import (
	"fmt"
	"math"
	"math/rand"

	"marlperf/internal/expserve"
	"marlperf/internal/expstore"
	"marlperf/internal/replay"
)

// fabric-sample is the read path of the replay fabric on its own: two
// shard servers over in-memory rings holding 131 072 rows between them,
// one client goroutine drawing uniform 1024-row batches through
// ShardedSource. expserve's wire and server code, expshard's view, the
// expstore gather and f64le do all the work and tensor none — codec and
// transport changes show here, kernel changes must not.
//
// One op is one ShardedSource.SampleBatch(1024, seed_i, dst).
const (
	sampleBatch   = 1024
	sampleRows    = 131072
	sampleWarmOps = 800
	poolRows      = 4096
	mirrorEvery   = 256 // every 256th timed draw is compared against the mirror ring
)

var samplePlan = replay.SamplePlan{Strategy: replay.PlanUniform}

type fabricSample struct {
	cfg    config
	fab    *fabric
	src    *expserve.ShardedSource
	mirror *expstore.Ring
	dst    []*replay.AgentBatch
	batch  int

	tc tierCounters
}

func newBatches(spec replay.Spec, n int) []*replay.AgentBatch {
	dst := make([]*replay.AgentBatch, spec.NumAgents)
	for a := range dst {
		dst[a] = replay.NewAgentBatch(n, spec.ObsDims[a], spec.ActDim)
	}
	return dst
}

// opSeed derives op i's draw seed from the run seed.
func opSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) + 1 }

func (s *fabricSample) blockOps() int { return 400 }

func (s *fabricSample) setup() error {
	s.batch = sampleBatch
	rows := sampleRows
	pool, warm := poolRows, sampleWarmOps
	if s.cfg.short {
		s.batch, rows, pool, warm = 64, 4096, 256, 20
	}
	// No shard wraps, so the view stays on its exact contiguous path and a
	// draw is bit-identical to the single-ring mirror's.
	shardCap, err := shardCapFor(rows)
	if err != nil {
		return err
	}
	fab, err := newFabric(shardCap, s.cfg.rec)
	if err != nil {
		return err
	}
	s.fab = fab
	s.mirror = expstore.NewRing(envSpec(rows))
	transitions := newRowPool(fab.spec, pool, rand.New(rand.NewSource(s.cfg.seed)))
	sink, err := expserve.NewShardedSink(fab.client, "prefill", fab.spec)
	if err != nil {
		return err
	}
	sink.SetMaxBatchRows(4096)
	if err := transitions.fill(sink, 0, rows, s.mirror); err != nil {
		return err
	}
	s.src, err = expserve.NewShardedSource(fab.client, fab.spec, samplePlan)
	if err != nil {
		return err
	}
	if n, err := s.src.Len(); err != nil {
		return err
	} else if n != rows {
		return fmt.Errorf("fabric holds %d rows after prefill, want %d", n, rows)
	}
	s.dst = newBatches(fab.spec, s.batch)
	for i := 0; i < warm; i++ {
		if err := s.op(-1 - i); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (s *fabricSample) startTimed() { s.tc.start(s.fab) }
func (s *fabricSample) stopTimed()  { s.tc.stop(s.fab) }

func (s *fabricSample) op(i int) error {
	rec := s.cfg.rec
	id := rec.enter("expserve.sample_client")
	idx, err := s.src.SampleBatch(s.batch, opSeed(s.cfg.seed, i), s.dst)
	rec.leave(id)
	if err != nil {
		return err
	}
	if len(idx) != s.batch {
		return fmt.Errorf("draw returned %d rows, want %d", len(idx), s.batch)
	}
	return nil
}

// check re-draws every mirrorEvery-th timed op through the fabric and from
// the single-ring mirror with the same (plan, n, seed), and compares the
// batches bit for bit.
func (s *fabricSample) check(ops int) (int, error) {
	layout := s.mirror.Layout()
	idx := make([]int, s.batch)
	packed := make([]float64, s.batch*layout.Stride())
	want := newBatches(s.fab.spec, s.batch)
	failed, compared := 0, 0
	var firstErr error
	for i := 0; i < ops; i += mirrorEvery {
		seed := opSeed(s.cfg.seed, i)
		got, err := s.src.SampleBatch(s.batch, seed, s.dst)
		if err == nil {
			err = s.mirror.SamplePacked(samplePlan, s.batch, seed, idx, packed)
		}
		if err == nil {
			layout.SplitRows(packed, s.batch, want)
			err = sameDraw(got, idx, s.dst, want)
		}
		compared++
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("op %d (seed %d): %w", i, seed, err)
			}
		}
	}
	fmt.Fprintf(s.cfg.log, "fabric-sample: %d of %d timed draws re-drawn and compared with the mirror ring, %d differ\n", compared, ops, failed)
	return failed, firstErr
}

// sameDraw reports the first difference between a fabric draw and the
// mirror's: chosen indices first, then every float of every agent batch,
// compared by bit pattern.
func sameDraw(gotIdx, wantIdx []int, got, want []*replay.AgentBatch) error {
	if len(gotIdx) != len(wantIdx) {
		return fmt.Errorf("fabric drew %d rows, mirror %d", len(gotIdx), len(wantIdx))
	}
	for j := range gotIdx {
		if gotIdx[j] != wantIdx[j] {
			return fmt.Errorf("slot %d: fabric chose row %d, mirror %d", j, gotIdx[j], wantIdx[j])
		}
	}
	n := len(gotIdx)
	for a := range got {
		fields := []struct {
			name string
			g, w []float64
			cols int
		}{
			{"obs", got[a].Obs.Data, want[a].Obs.Data, got[a].Obs.Cols},
			{"act", got[a].Act.Data, want[a].Act.Data, got[a].Act.Cols},
			{"rew", got[a].Rew.Data, want[a].Rew.Data, got[a].Rew.Cols},
			{"next_obs", got[a].NextObs.Data, want[a].NextObs.Data, got[a].NextObs.Cols},
			{"done", got[a].Done.Data, want[a].Done.Data, got[a].Done.Cols},
		}
		for _, f := range fields {
			for k := 0; k < n*f.cols; k++ {
				if math.Float64bits(f.g[k]) != math.Float64bits(f.w[k]) {
					return fmt.Errorf("agent %d %s[%d]: fabric %v, mirror %v", a, f.name, k, f.g[k], f.w[k])
				}
			}
		}
	}
	return nil
}

func (s *fabricSample) layers(sec *section, sp *spanData, m layerSet) {
	setRPCSpans(m, sp, "sample")
	s.tc.report(m, sec)
}

// setRPCSpans reports the client, server and wire time of the sample or
// append RPCs. The client waits for the slowest shard; what is left of its
// span is the wire plus the client's own encode, decode and merge.
func setRPCSpans(m layerSet, sp *spanData, rpc string) {
	clientSpan, serverSpan := "expserve."+rpc+"_client", "expserve."+rpc+"_server"
	client := sp.meanMs(clientSpan)
	var server float64
	if slow := slowestChild(sp.spans, clientSpan, serverSpan); len(slow) > 0 {
		var sum int64
		for _, d := range slow {
			sum += d
		}
		server = ms(float64(sum)) / float64(len(slow))
	}
	m.set(clientSpan+"_ms", client)
	m.set(serverSpan+"_ms", server)
	m.set("expserve."+rpc+"_wire_ms", client-server)
}

// tierCounters is the experience tier's counting state over the timed
// section: the clients' RPC and byte counts and the servers' row-store
// busy time. Zero in the untraced run, which installs no counters.
type tierCounters struct {
	rpc  transportCounts
	busy int64
}

func (t *tierCounters) start(f *fabric) {
	t.rpc, t.busy = f.counter.counts(), f.providerBusyNs()
}

func (t *tierCounters) stop(f *fabric) {
	t.rpc, t.busy = f.counter.counts().sub(t.rpc), f.providerBusyNs()-t.busy
}

func (t *tierCounters) report(m layerSet, sec *section) {
	ops := float64(sec.ops)
	m.set("expserve.rpcs_per_op", float64(t.rpc.rpcs)/ops)
	m.set("expserve.sample_bytes_per_op", float64(t.rpc.sampleBytes)/ops)
	m.set("expserve.append_bytes_per_op", float64(t.rpc.appendBytes)/ops)
	m.set("expserve.retries", float64(t.rpc.retries))
	m.set("expstore.provider_busy_share", float64(t.busy)/float64(sec.wall))
}

func (s *fabricSample) floors(m floorSet) {
	local := floorStore(m, s.fab, s.mirror, s.batch, s.cfg.seed)
	floorLoopback(m, s.batch/fabricGroups*s.fab.rings[0].Layout().Stride()*8)
	if local > 0 {
		if client := m.layerSet["expserve.sample_client_ms"]; client > 0 {
			remote := float64(s.batch) / (client / 1e3)
			m.set("expserve.remote_vs_local_ratio", remote/local)
		}
	}
}

func (s *fabricSample) close() {
	if s.fab != nil {
		s.fab.close()
	}
}
