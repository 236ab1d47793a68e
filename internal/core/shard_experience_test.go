package core

import (
	"bytes"
	"net/http/httptest"
	"testing"
	"time"

	"marlperf/internal/expserve"
	"marlperf/internal/expshard"
	"marlperf/internal/expstore"
	"marlperf/internal/mpe"
	"marlperf/internal/replay"
	"marlperf/internal/trace"
)

// shardFabric describes one test topology. The zero value is what a plain
// -replay-addr builds: one shard over a volatile ring, fault-free clients.
type shardFabric struct {
	shards  int  // 0 means 1
	durable bool // segment-packed stores on disk instead of rings
	client  expserve.ClientOptions
	// tracer instruments the member clients, serverTracer the servers.
	tracer, serverTracer *trace.Tracer
}

// newShardFabric spins up real replayd HTTP servers at R=1 and a client
// fabric routing across them.
func newShardFabric(t *testing.T, spec replay.Spec, o shardFabric) *expserve.Fabric {
	t.Helper()
	if o.client.Timeout == 0 {
		o.client = expserve.ClientOptions{Timeout: 10 * time.Second, JitterSeed: 1}
	}
	var groups []expshard.Group
	for gi := 0; gi < max(o.shards, 1); gi++ {
		var provider expstore.Provider = expstore.NewRing(spec)
		if o.durable {
			store, err := expstore.Open(t.TempDir(), spec, expstore.Options{SegmentRows: 128})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			provider = store
		}
		id := expshard.DefaultGroupID(gi)
		srv, err := expserve.NewServer(expserve.ServerConfig{Provider: provider, Spec: spec, ShardID: id, Tracer: o.serverTracer})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		t.Cleanup(func() { hs.Close(); srv.Close() })
		groups = append(groups, expshard.Group{ID: id, Members: []expshard.Member{{Addr: hs.URL}}})
	}
	o.client.Tracer = o.tracer
	fabric, err := expserve.NewFabric(groups, expserve.FabricOptions{Client: o.client})
	if err != nil {
		t.Fatal(err)
	}
	return fabric
}

// The determinism contract of the actor/learner split and of the sharded
// replay fabric: a trainer sampling from (and publishing to) N shards at
// R=1 — real HTTP servers, rings or segment-packed stores on disk — must
// train BIT-IDENTICALLY to one wired to a local in-process store, across
// shard counts (one shard is the plain -replay-addr topology), samplers,
// update worker counts, and with prefetch overlap on or off. Sharding,
// like the service split itself, is a pure throughput topology knob: same
// insertion order, same per-batch seeds, same plan executed on every shard
// over the same frozen view, same stable shard-ordered merge, therefore
// the same weights.
func TestShardedExperienceTrainingMatchesLocal(t *testing.T) {
	env := mpe.NewCooperativeNavigation(2)
	local := make(map[SamplerKind][]byte)
	localUpdates := make(map[SamplerKind]int)
	for _, sampler := range []SamplerKind{SamplerUniform, SamplerLocality} {
		cfg := expConfig(sampler)
		plan, err := cfg.SamplePlan()
		if err != nil {
			t.Fatal(err)
		}
		src, err := expstore.NewSource(expstore.NewRing(expSpec(cfg, env)), plan)
		if err != nil {
			t.Fatal(err)
		}
		ckpt, tr := runServiceTrainer(t, cfg, src, src, 4)
		if tr.UpdateCount() == 0 {
			t.Fatal("no updates ran; the determinism check is vacuous")
		}
		local[sampler], localUpdates[sampler] = ckpt, tr.UpdateCount()
		tr.Close()
	}

	for _, tc := range []struct {
		name     string
		sampler  SamplerKind
		fabric   shardFabric
		workers  int
		prefetch bool
	}{
		{"1shard-durable-uniform", SamplerUniform, shardFabric{durable: true}, 1, false},
		{"1shard-durable", SamplerLocality, shardFabric{durable: true}, 1, false},
		{"1shard-3workers-prefetch", SamplerLocality, shardFabric{}, 3, true},
		{"2shards", SamplerLocality, shardFabric{shards: 2}, 1, false},
		{"2shards-prefetch", SamplerLocality, shardFabric{shards: 2}, 1, true},
		{"3shards-3workers-prefetch", SamplerLocality, shardFabric{shards: 3}, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := expConfig(tc.sampler)
			cfg.UpdateWorkers = tc.workers
			spec := expSpec(cfg, env)
			plan, err := cfg.SamplePlan()
			if err != nil {
				t.Fatal(err)
			}
			fabric := newShardFabric(t, spec, tc.fabric)
			src, err := expserve.NewShardedSource(fabric, spec, plan)
			if err != nil {
				t.Fatal(err)
			}
			var source replay.TransitionSource = src
			if tc.prefetch {
				source = expserve.NewPrefetchSource(src, 2, nil)
			}
			sink, err := expserve.NewShardedSink(fabric, "actor-0", spec)
			if err != nil {
				t.Fatal(err)
			}
			ckpt, tr := runServiceTrainer(t, cfg, source, sink, 4)
			defer tr.Close()

			if tr.UpdateCount() != localUpdates[tc.sampler] {
				t.Fatalf("update counts diverge: sharded %d, local %d", tr.UpdateCount(), localUpdates[tc.sampler])
			}
			if !bytes.Equal(ckpt, local[tc.sampler]) {
				t.Fatalf("sharded training diverged from local: checkpoints differ (%d vs %d bytes)", len(ckpt), len(local[tc.sampler]))
			}
			if fabric.DegradedDraws() != 0 || fabric.ReplicaReads() != 0 {
				t.Fatalf("healthy run left the happy path: replica_reads=%d degraded_draws=%d",
					fabric.ReplicaReads(), fabric.DegradedDraws())
			}
		})
	}
}
