package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"marlperf/internal/expserve"
	"marlperf/internal/expshard"
	"marlperf/internal/expstore"
	"marlperf/internal/mpe"
	"marlperf/internal/replay"
	"marlperf/internal/telemetry"
)

// The whole benchmark runs the paper's Table I base cell: predator-prey
// with three trainable predators.
const agents = 3

// fabricGroups is the shard-group count of every replay fabric the
// benchmark builds (R=1: one member per group). Two groups on a two-core
// host keep at most two connections in flight.
const fabricGroups = 2

func newEnv() mpe.Env { return mpe.NewPredatorPrey(agents) }

// envSpec is the transition shape of the benchmark's environment with the
// given row capacity.
func envSpec(capacity int) replay.Spec {
	env := newEnv()
	return replay.Spec{NumAgents: env.NumAgents(), ObsDims: env.ObsDims(), ActDim: env.NumActions(), Capacity: capacity}
}

// fabric is an in-process replay fabric: fabricGroups experience servers
// over in-memory rings behind loopback httptest listeners, plus the client
// fabric that routes to them.
type fabric struct {
	spec      replay.Spec // Capacity is per shard
	rings     []*expstore.Ring
	provs     []*timedProvider // traced run only
	regs      []*telemetry.Registry
	servers   []*expserve.Server
	listeners []*httptest.Server
	transport *http.Transport
	counter   *countingTransport // traced run only
	client    *expserve.Fabric
}

// newFabric starts the servers. shardCap is the row capacity of each
// shard's ring — always set explicitly so memory stays bounded. With a
// recorder, the servers get the timing provider and handler wrappers and
// the clients the counting transport.
func newFabric(shardCap int, rec *recorder) (*fabric, error) {
	f := &fabric{
		spec:      envSpec(shardCap),
		transport: &http.Transport{MaxIdleConns: 2 * fabricGroups, MaxIdleConnsPerHost: 2, IdleConnTimeout: 90 * time.Second},
	}
	var groups []expshard.Group
	for gi := 0; gi < fabricGroups; gi++ {
		id := expshard.DefaultGroupID(gi)
		ring := expstore.NewRing(f.spec)
		var prov expstore.Provider = ring
		if rec != nil {
			tp := &timedProvider{ring: ring}
			f.provs = append(f.provs, tp)
			prov = tp
		}
		reg := telemetry.NewRegistry()
		srv, err := expserve.NewServer(expserve.ServerConfig{Provider: prov, Spec: f.spec, ShardID: id, Registry: reg})
		if err != nil {
			f.close()
			return nil, err
		}
		var h http.Handler = srv
		if rec != nil {
			h = spanHandler(rec, int32(gi+1), srv)
		}
		ls := httptest.NewServer(h)
		f.rings = append(f.rings, ring)
		f.regs = append(f.regs, reg)
		f.servers = append(f.servers, srv)
		f.listeners = append(f.listeners, ls)
		groups = append(groups, expshard.Group{ID: id, Members: []expshard.Member{{Addr: ls.URL}}})
	}
	var rt http.RoundTripper = f.transport
	if rec != nil {
		f.counter = &countingTransport{next: f.transport}
		rt = f.counter
	}
	client, err := expserve.NewFabric(groups, expserve.FabricOptions{
		// One attempt: on loopback a retry only ever hides a failure, and
		// a failed op is what the benchmark is supposed to report.
		Client: expserve.ClientOptions{Timeout: 30 * time.Second, Attempts: 1, JitterSeed: 1, Transport: rt},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.client = client
	return f, nil
}

func (f *fabric) close() {
	for _, ls := range f.listeners {
		ls.Close()
	}
	for _, srv := range f.servers {
		srv.Close()
	}
	f.transport.CloseIdleConnections()
}

// shardCapFor returns the ring capacity with which no shard wraps while
// the fabric holds a stream of streamRows rows. The hash ring rarely splits
// the partitions evenly, so this is a little more than an equal share.
func shardCapFor(streamRows int) (int, error) {
	var groups []expshard.Group
	for gi := 0; gi < fabricGroups; gi++ {
		groups = append(groups, expshard.Group{ID: expshard.DefaultGroupID(gi), Members: []expshard.Member{{Addr: "unused"}}})
	}
	snap, err := expshard.BuildSnapshot(groups, 0)
	if err != nil {
		return 0, err
	}
	most := 0
	for gi := range snap.Groups {
		if n := len(snap.OwnedPartitions(gi)); n > most {
			most = n
		}
	}
	return (streamRows*most+snap.Partitions-1)/snap.Partitions + snap.Partitions, nil
}

// rowsToWrap is how many stream rows must be appended before every shard's
// ring has wrapped at least once. Placement stripes rows over the hash
// ring's partitions, so a group receives owned/partitions of the stream and
// the group that owns the fewest partitions wraps last.
func (f *fabric) rowsToWrap() int {
	snap := f.client.Snapshot()
	fewest := snap.Partitions
	for gi := range snap.Groups {
		if n := len(snap.OwnedPartitions(gi)); n < fewest {
			fewest = n
		}
	}
	return (f.spec.Capacity*snap.Partitions+fewest-1)/fewest + snap.Partitions
}

// totalRows sums the rows every shard has ever accepted.
func (f *fabric) totalRows() uint64 {
	var n uint64
	for _, r := range f.rings {
		n += r.Total()
	}
	return n
}

// dupBatches sums the append batches the servers acknowledged as
// duplicates.
func (f *fabric) dupBatches() uint64 {
	var n uint64
	for _, reg := range f.regs {
		n += reg.Counter("marl_exp_ingest_dup_batches_total").Value()
	}
	return n
}

// providerBusyNs sums the time all servers spent inside their row stores.
func (f *fabric) providerBusyNs() int64 {
	var n int64
	for _, p := range f.provs {
		n += p.busyNs.Load()
	}
	return n
}

// randomObs draws one observation row per agent.
func randomObs(spec replay.Spec, rng *rand.Rand) [][]float64 {
	obs := make([][]float64, spec.NumAgents)
	for a := range obs {
		obs[a] = make([]float64, spec.ObsDims[a])
		for k := range obs[a] {
			obs[a][k] = rng.Float64()*2 - 1
		}
	}
	return obs
}

// rowPool is a fixed set of seeded transitions. Ops draw rows from it
// round-robin, so what an op sends depends only on the seed and the op
// index, and the timed section generates no random numbers.
type rowPool struct {
	obs, act, nxt [][][]float64 // [row][agent][dim]
	rew, done     [][]float64   // [row][agent]
}

func newRowPool(spec replay.Spec, rows int, rng *rand.Rand) *rowPool {
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		return v
	}
	p := &rowPool{}
	for r := 0; r < rows; r++ {
		var obs, act, nxt [][]float64
		for a := 0; a < spec.NumAgents; a++ {
			obs = append(obs, vec(spec.ObsDims[a]))
			act = append(act, vec(spec.ActDim))
			nxt = append(nxt, vec(spec.ObsDims[a]))
		}
		p.obs, p.act, p.nxt = append(p.obs, obs), append(p.act, act), append(p.nxt, nxt)
		p.rew = append(p.rew, vec(spec.NumAgents))
		p.done = append(p.done, make([]float64, spec.NumAgents))
	}
	return p
}

func (p *rowPool) len() int { return len(p.obs) }

// add sends pool row i (modulo the pool size) to sink.
func (p *rowPool) add(sink replay.TransitionSink, i int) error {
	i %= len(p.obs)
	return sink.Add(p.obs[i], p.act[i], p.rew[i], p.nxt[i], p.done[i])
}

// fill appends rows pool rows through sink, starting at pool row from, and
// flushes. mirror, when non-nil, receives the same packed rows in the same
// order — the single-store reference a sharded draw must match.
func (p *rowPool) fill(sink replay.TransitionSink, from, rows int, mirror *expstore.Ring) error {
	var packed []float64
	var layout replay.RowLayout
	if mirror != nil {
		layout = mirror.Layout()
		packed = make([]float64, layout.Stride())
	}
	for r := 0; r < rows; r++ {
		if err := p.add(sink, from+r); err != nil {
			return fmt.Errorf("prefill row %d: %w", r, err)
		}
		if mirror != nil {
			i := (from + r) % len(p.obs)
			layout.PackRow(packed, p.obs[i], p.act[i], p.rew[i], p.nxt[i], p.done[i])
			mirror.Append(packed)
		}
	}
	return sink.Flush()
}
