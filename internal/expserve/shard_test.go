package expserve

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"marlperf/internal/expshard"
	"marlperf/internal/expstore"
	"marlperf/internal/replay"
	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

// fabricCell is one test topology: groups×replicas of real in-process
// replay servers behind a Fabric.
type fabricCell struct {
	fabric  *Fabric
	servers [][]*httptest.Server
	groups  []expshard.Group
}

// newFabricCell spins up groups×replicas servers (each replica of a
// group carries the group's shard ID) and a Fabric over them.
func newFabricCell(t *testing.T, spec replay.Spec, groups, replicas int, reg *telemetry.Registry) *fabricCell {
	t.Helper()
	cell := &fabricCell{}
	for gi := 0; gi < groups; gi++ {
		id := expshard.DefaultGroupID(gi)
		g := expshard.Group{ID: id}
		cell.servers = append(cell.servers, nil)
		for mi := 0; mi < replicas; mi++ {
			srv, err := NewServer(ServerConfig{Provider: expstore.NewRing(spec), Spec: spec, ShardID: id})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv)
			t.Cleanup(func() { hs.Close(); srv.Close() })
			cell.servers[gi] = append(cell.servers[gi], hs)
			g.Members = append(g.Members, expshard.Member{Addr: hs.URL})
		}
		cell.groups = append(cell.groups, g)
	}
	f, err := NewFabric(cell.groups, FabricOptions{
		Client:         ClientOptions{Timeout: 5 * time.Second, Attempts: 2, BaseDelay: time.Millisecond, JitterSeed: 1, Registry: reg},
		MemberDeadline: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cell.fabric = f
	return cell
}

func drawEqual(t *testing.T, tag string, idxA, idxB []int, dstA, dstB []*replay.AgentBatch) {
	t.Helper()
	for i := range idxA {
		if idxA[i] != idxB[i] {
			t.Fatalf("%s: index %d differs: %d vs %d", tag, i, idxA[i], idxB[i])
		}
	}
	for a := range dstA {
		for i := range dstA[a].Obs.Data {
			if dstA[a].Obs.Data[i] != dstB[a].Obs.Data[i] {
				t.Fatalf("%s: agent %d obs diverges at %d", tag, a, i)
			}
		}
		for i := range dstA[a].Act.Data {
			if dstA[a].Act.Data[i] != dstB[a].Act.Data[i] {
				t.Fatalf("%s: agent %d act diverges at %d", tag, a, i)
			}
		}
		for i := range dstA[a].NextObs.Data {
			if dstA[a].NextObs.Data[i] != dstB[a].NextObs.Data[i] {
				t.Fatalf("%s: agent %d next-obs diverges at %d", tag, a, i)
			}
		}
		for i := range dstA[a].Rew.Data {
			if dstA[a].Rew.Data[i] != dstB[a].Rew.Data[i] || dstA[a].Done.Data[i] != dstB[a].Done.Data[i] {
				t.Fatalf("%s: agent %d scalars diverge at %d", tag, a, i)
			}
		}
	}
}

// The tentpole equivalence property: a sharded fabric at R=1 must be
// bit-identical to a single replayd — same rows in, same (plan, n,
// seed) draws out, across shard counts.
func TestShardedMatchesSingleStoreBitForBit(t *testing.T) {
	spec := testSpec(256)
	for _, shards := range []int{1, 2, 4} {
		for _, plan := range []replay.SamplePlan{
			{Strategy: replay.PlanUniform},
			{Strategy: replay.PlanLocality, Neighbors: 8, Refs: 4},
		} {
			cell := newFabricCell(t, spec, shards, 1, nil)
			sink, err := NewShardedSink(cell.fabric, "actor-0", spec)
			if err != nil {
				t.Fatal(err)
			}

			localRing := expstore.NewRing(spec)
			local, err := expstore.NewSource(localRing, plan)
			if err != nil {
				t.Fatal(err)
			}

			rngA := rand.New(rand.NewSource(7))
			rngB := rand.New(rand.NewSource(7))
			// Several shards hold shards×capacity rows between them, so stay
			// below one shard's capacity: no trims anywhere. One shard has
			// exactly the local store's capacity, so wrap its window.
			rows, retained := 200, 200
			if shards == 1 {
				rows, retained = 300, 256
			}
			for i := 0; i < rows; i++ {
				obs, act, rew, nxt, done := step(rngA)
				if err := sink.Add(obs, act, rew, nxt, done); err != nil {
					t.Fatal(err)
				}
				obs, act, rew, nxt, done = step(rngB)
				if err := local.Add(obs, act, rew, nxt, done); err != nil {
					t.Fatal(err)
				}
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}

			src, err := NewShardedSource(cell.fabric, spec, plan)
			if err != nil {
				t.Fatal(err)
			}
			nF, err := src.Len()
			if err != nil {
				t.Fatal(err)
			}
			nL, _ := local.Len()
			if nF != nL || nF != retained {
				t.Fatalf("shards=%d plan %v: fabric Len %d, local Len %d, want %d", shards, plan, nF, nL, retained)
			}

			const batch = 32
			for trial := 0; trial < 5; trial++ {
				seed := int64(4000 + trial)
				dstF := []*replay.AgentBatch{replay.NewAgentBatch(batch, 3, 2), replay.NewAgentBatch(batch, 4, 2)}
				dstL := []*replay.AgentBatch{replay.NewAgentBatch(batch, 3, 2), replay.NewAgentBatch(batch, 4, 2)}
				idxF, err := src.SampleBatch(batch, seed, dstF)
				if err != nil {
					t.Fatal(err)
				}
				idxL, err := local.SampleBatch(batch, seed, dstL)
				if err != nil {
					t.Fatal(err)
				}
				drawEqual(t, "sharded-vs-local", idxF, idxL, dstF, dstL)
			}
		}
	}
}

// TestShardedSourceSkipsNilRewardsAndDones: a fabric draw into batches
// whose Rew and Done are nil, but for one agent's, leaves them nil and
// writes every other field as a draw into full batches does.
func TestShardedSourceSkipsNilRewardsAndDones(t *testing.T) {
	spec := testSpec(256)
	cell := newFabricCell(t, spec, 2, 1, nil)
	sink, err := NewShardedSink(cell.fabric, "actor-0", spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		obs, act, rew, nxt, done := step(rng)
		if err := sink.Add(obs, act, rew, nxt, done); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	src, err := NewShardedSource(cell.fabric, spec, replay.SamplePlan{Strategy: replay.PlanUniform})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 64
	batches := func() []*replay.AgentBatch {
		return []*replay.AgentBatch{replay.NewAgentBatch(batch, 3, 2), replay.NewAgentBatch(batch, 4, 2)}
	}
	for keep := range spec.ObsDims {
		full, part := batches(), batches()
		for a, b := range part {
			if a != keep {
				b.Rew, b.Done = nil, nil
			}
		}
		idxF, err := src.SampleBatch(batch, 77, full)
		if err != nil {
			t.Fatal(err)
		}
		idxP, err := src.SampleBatch(batch, 77, part)
		if err != nil {
			t.Fatal(err)
		}
		for a, b := range part {
			if a != keep {
				if b.Rew != nil || b.Done != nil {
					t.Fatalf("agent %d's nil Rew/Done were replaced", a)
				}
				b.Rew, b.Done = full[a].Rew, full[a].Done
			}
		}
		drawEqual(t, fmt.Sprintf("keeping agent %d's scalars", keep), idxP, idxF, part, full)
	}
}

// Replication: every replica of a group receives every routed row, so
// killing the preferred member mid-stream must not change a single
// sampled bit — only the marl_shard_replica_reads_total counter.
func TestShardedReplicaFailoverBitForBit(t *testing.T) {
	spec := testSpec(256)
	plan := replay.SamplePlan{Strategy: replay.PlanUniform}
	reg := telemetry.NewRegistry()
	cell := newFabricCell(t, spec, 2, 2, reg)

	sink, err := NewShardedSink(cell.fabric, "actor-0", spec)
	if err != nil {
		t.Fatal(err)
	}
	local, err := expstore.NewSource(expstore.NewRing(spec), plan)
	if err != nil {
		t.Fatal(err)
	}
	rngA, rngB := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	for i := 0; i < 180; i++ {
		obs, act, rew, nxt, done := step(rngA)
		if err := sink.Add(obs, act, rew, nxt, done); err != nil {
			t.Fatal(err)
		}
		obs, act, rew, nxt, done = step(rngB)
		if err := local.Add(obs, act, rew, nxt, done); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	src, err := NewShardedSource(cell.fabric, spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Len(); err != nil {
		t.Fatal(err)
	}

	// Kill group 0's preferred member; its replica holds an identical copy.
	cell.servers[0][0].Close()
	if n, err := src.Len(); err != nil || n != 180 {
		t.Fatalf("Len after member kill: %d, %v", n, err)
	}

	const batch = 32
	for trial := 0; trial < 3; trial++ {
		seed := int64(9000 + trial)
		dstF := []*replay.AgentBatch{replay.NewAgentBatch(batch, 3, 2), replay.NewAgentBatch(batch, 4, 2)}
		dstL := []*replay.AgentBatch{replay.NewAgentBatch(batch, 3, 2), replay.NewAgentBatch(batch, 4, 2)}
		idxF, err := src.SampleBatch(batch, seed, dstF)
		if err != nil {
			t.Fatal(err)
		}
		idxL, err := local.SampleBatch(batch, seed, dstL)
		if err != nil {
			t.Fatal(err)
		}
		drawEqual(t, "failover-vs-local", idxF, idxL, dstF, dstL)
	}
	if cell.fabric.ReplicaReads() == 0 {
		t.Fatal("expected replica reads after killing the preferred member")
	}
	if cell.fabric.DegradedDraws() != 0 {
		t.Fatalf("replica failover must not degrade the draw, got %d degraded", cell.fabric.DegradedDraws())
	}
}

// Degraded reads: a group losing every replica is excluded and the draw
// reweighted over the survivors — training continues, the loss is
// counted, and the batch is fully populated from live shards.
func TestShardedDegradedDrawSkipsDeadGroup(t *testing.T) {
	spec := testSpec(256)
	plan := replay.SamplePlan{Strategy: replay.PlanUniform}
	reg := telemetry.NewRegistry()
	cell := newFabricCell(t, spec, 2, 1, reg)

	sink, err := NewShardedSink(cell.fabric, "actor-0", spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 160; i++ {
		obs, act, rew, nxt, done := step(rng)
		if err := sink.Add(obs, act, rew, nxt, done); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	src, err := NewShardedSource(cell.fabric, spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Len(); err != nil {
		t.Fatal(err)
	}

	cell.servers[1][0].Close() // whole group 1 gone (R=1)

	const batch = 32
	dst := []*replay.AgentBatch{replay.NewAgentBatch(batch, 3, 2), replay.NewAgentBatch(batch, 4, 2)}
	idx, err := src.SampleBatch(batch, 777, dst)
	if err != nil {
		t.Fatalf("degraded draw failed: %v", err)
	}
	if len(idx) != batch {
		t.Fatalf("degraded draw returned %d indices, want %d", len(idx), batch)
	}
	if cell.fabric.DegradedDraws() == 0 {
		t.Fatal("expected degraded draws after losing a whole group")
	}
	// The reweighted stream must still be sampleable via Len.
	n, err := src.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || n > 160 {
		t.Fatalf("degraded Len %d outside (0,160]", n)
	}
}

// Prefetch overlap composes with the fabric: a prefetched fabric draw
// is bit-identical to the synchronous one.
func TestShardedPrefetchMatchesSync(t *testing.T) {
	spec := testSpec(256)
	plan := replay.SamplePlan{Strategy: replay.PlanUniform}
	cell := newFabricCell(t, spec, 2, 1, nil)

	sink, err := NewShardedSink(cell.fabric, "actor-0", spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 150; i++ {
		obs, act, rew, nxt, done := step(rng)
		if err := sink.Add(obs, act, rew, nxt, done); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	sync1, err := NewShardedSource(cell.fabric, spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	sync2, err := NewShardedSource(cell.fabric, spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	pre := NewPrefetchSource(sync2, 2, nil)
	if _, err := sync1.Len(); err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Len(); err != nil {
		t.Fatal(err)
	}

	const batch = 24
	seeds := []int64{101, 102, 103}
	pre.PrefetchBatch(batch, seeds)
	for _, seed := range seeds {
		dstS := []*replay.AgentBatch{replay.NewAgentBatch(batch, 3, 2), replay.NewAgentBatch(batch, 4, 2)}
		dstP := []*replay.AgentBatch{replay.NewAgentBatch(batch, 3, 2), replay.NewAgentBatch(batch, 4, 2)}
		idxS, err := sync1.SampleBatch(batch, seed, dstS)
		if err != nil {
			t.Fatal(err)
		}
		idxP, err := pre.SampleBatch(batch, seed, dstP)
		if err != nil {
			t.Fatal(err)
		}
		drawEqual(t, "prefetch-vs-sync", idxS, idxP, dstS, dstP)
	}
}

// Wire sanity: the shard request survives an encode/decode round trip and
// corruption of any byte is detected; so is corruption of any byte of a
// reply's header, and a reply to another request.
func TestShardWireRoundTripAndCorruption(t *testing.T) {
	req := wireTestRequest()
	buf, err := encodeShardSampleRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != shardReqSize(len(req.ShardID), len(req.Locals)) {
		t.Fatalf("encoded %d bytes, layout needs %d", len(buf), shardReqSize(len(req.ShardID), len(req.Locals)))
	}
	got, err := decodeShardSampleRequest(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.ShardID != req.ShardID || got.Stat.Rows != req.Stat.Rows || got.Stat.Total != req.Stat.Total || !slices.Equal(got.Locals, req.Locals) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, req)
	}

	for pos := 0; pos < len(buf); pos++ {
		mut := make([]byte, len(buf))
		copy(mut, buf)
		mut[pos] ^= 0x41
		if _, err := decodeShardSampleRequest(mut, nil); err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		}
	}
	if _, err := decodeShardSampleRequest(buf[:len(buf)-1], nil); err == nil {
		t.Fatal("truncated request went undetected")
	}
	for _, bad := range []shardSampleRequest{
		{Stat: expshard.GroupStat{Rows: 4, Total: 3}, Locals: []int{0}},
		{Stat: expshard.GroupStat{Rows: 4, Total: 4}, Locals: []int{4}},
		{Stat: expshard.GroupStat{Rows: 4, Total: 4}, Locals: []int{-1}},
	} {
		if _, err := encodeShardSampleRequest(nil, bad); err == nil {
			t.Fatalf("encoded %+v", bad)
		}
	}

	const k, stride = 2, 3
	reply := make([]byte, shardReplySize(k, stride))
	putShardReplyHeader(reply, k, stride, requestCRC(buf))
	if rows, err := decodeShardReply(reply, k, stride, requestCRC(buf)); err != nil || len(rows) != 8*k*stride {
		t.Fatalf("valid reply: %d row bytes, %v", len(rows), err)
	}
	for pos := 0; pos < shardReplyHdr; pos++ {
		mut := append([]byte(nil), reply...)
		mut[pos] ^= 0x41
		if _, err := decodeShardReply(mut, k, stride, requestCRC(buf)); err == nil {
			t.Fatalf("reply header corruption at byte %d went undetected", pos)
		}
	}
	if _, err := decodeShardReply(reply, k, stride, requestCRC(buf)+1); err == nil {
		t.Fatal("a reply to another request was accepted")
	}
	if _, err := decodeShardReply(reply[:len(reply)-1], k, stride, requestCRC(buf)); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("truncated reply: err = %v, want ErrShortFrame", err)
	}
}

// FabricOptions.Client is the one place a fabric takes its registry and
// tracer from: every member's retry and circuit series land in the
// template's Registry beside the fabric's own, and a traced draw records a
// shard-sample span per group it reads on the template's Tracer.
func TestFabricMembersUseClientRegistryAndTracer(t *testing.T) {
	spec := testSpec(256)
	cell := newFabricCell(t, spec, 2, 2, nil)
	reg := telemetry.NewRegistry()
	tr := trace.New("learner", 0)
	tr.SetEnabled(true)
	f, err := NewFabric(cell.groups, FabricOptions{
		Client: ClientOptions{Timeout: 5 * time.Second, Attempts: 2, BaseDelay: time.Millisecond, JitterSeed: 1, Registry: reg, Tracer: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	fillServer(t, f, spec, 120)
	src, err := NewShardedSource(f, spec, replay.SamplePlan{Strategy: replay.PlanUniform})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Len(); err != nil {
		t.Fatal(err)
	}
	root := tr.StartTrace(1, "update")
	tr.SetActive(root.Context())
	dst := []*replay.AgentBatch{replay.NewAgentBatch(32, 3, 2), replay.NewAgentBatch(32, 4, 2)}
	if _, err := src.SampleBatch(32, 7, dst); err != nil {
		t.Fatal(err)
	}
	tr.ClearActive()
	root.EndArg("", 0)

	var expo bytes.Buffer
	if err := reg.WriteExposition(&expo); err != nil {
		t.Fatal(err)
	}
	for _, g := range cell.groups {
		for mi := range g.Members {
			edge := fmt.Sprintf(`{edge="replay-%s-m%d"}`, g.ID, mi)
			for _, series := range []string{"marl_circuit_state", "marl_circuit_open_total", "marl_retry_total", "marl_retry_giveup_total"} {
				if !strings.Contains(expo.String(), "\n"+series+edge+" ") {
					t.Errorf("registry has no %s%s", series, edge)
				}
			}
		}
	}
	if !strings.Contains(expo.String(), "\nmarl_shard_view_refreshes_total ") {
		t.Error("registry has no fabric series")
	}
	spans := 0
	for _, rec := range tr.Snapshot() {
		if rec.Name == "shard-sample-rpc" {
			spans++
			if rec.TraceID != root.Context().TraceID {
				t.Errorf("shard-sample-rpc span in trace %x, want the active %x", rec.TraceID, root.Context().TraceID)
			}
		}
	}
	if spans != len(cell.groups) {
		t.Errorf("%d shard-sample-rpc spans for a draw over %d groups", spans, len(cell.groups))
	}
}

// One replayd named twice, under two spellings of its address, passes
// ParseSpec. Its two member sinks would send as one actor with their own
// sequence counters, so the server would answer one group's batches as
// duplicates of the other's: a flush of 64 rows would leave 32. FetchSpec
// sees one instance answer for both members and refuses the fabric, and so
// does the learner's NewShardedSource, which calls it.
func TestFetchSpecRefusesOneReplaydNamedTwice(t *testing.T) {
	spec := testSpec(4096)
	ring := expstore.NewRing(spec)
	defer ring.Close()
	srv, err := NewServer(ServerConfig{Provider: ring, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()
	port := hs.Listener.Addr().(*net.TCPAddr).Port
	groups, err := expshard.ParseSpec(fmt.Sprintf("127.0.0.1:%d,localhost:%d", port, port))
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := NewFabric(groups, FabricOptions{Client: fastOpts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.FetchSpec(); err == nil {
		sink, err := NewShardedSink(fabric, "actor-0", spec)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 64; i++ {
			obs, act, rew, nxt, done := step(rng)
			if err := sink.Add(obs, act, rew, nxt, done); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("FetchSpec accepted one replayd named twice; of 64 rows flushed it holds %d", ring.Len())
	} else if !errors.Is(err, ErrSameReplayd) || !strings.Contains(err.Error(), "localhost") {
		t.Fatalf("FetchSpec: %v, want ErrSameReplayd naming both members", err)
	}
	if _, err := NewShardedSource(fabric, spec, replay.SamplePlan{Strategy: replay.PlanUniform}); !errors.Is(err, ErrSameReplayd) {
		t.Fatalf("NewShardedSource: %v, want ErrSameReplayd", err)
	}
}
