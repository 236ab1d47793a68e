package core

// The determinism oracle. Every knob an operator can turn without changing
// what is learned — the worker count, the transition layout, tracing,
// telemetry, where experience lives (the trainer's own buffer or any replay
// fabric topology), the learner's prefetch, a lossy wire, saving snapshots —
// must leave training bit for bit the same. One test proves it for all of them: each
// cell of a swept matrix trains once and compares its full witness
// (checkpoint bytes, per-episode rewards, update count) with the oracle run
// of its class, and checks that the knobs it turned did something.

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"marlperf/internal/expserve"
	"marlperf/internal/expshard"
	"marlperf/internal/expstore"
	"marlperf/internal/faultnet"
	"marlperf/internal/mpe"
	"marlperf/internal/profiler"
	"marlperf/internal/replay"
	"marlperf/internal/resilience"
	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

// matrixEpisodes is how long every cell trains: at smallConfig's cadence,
// enough updates for MATD3's delayed actor steps and for priority feedback
// to move the prioritized samplers' trees. A wrap cell trains wrapEpisodes,
// 750 steps into smallConfig's 512-row buffer and rings, so its last draws
// run past the ring wrap.
const (
	matrixEpisodes = 4
	wrapEpisodes   = 30
)

// topology is where a run's experience lives and how it is drawn.
type topology int

const (
	inProcess  topology = iota // the trainer's own buffer and sampler
	oneRing                    // one replayd over a volatile ring: a plain -replay-addr
	oneDurable                 // one replayd over a segment-packed store on disk
	twoRings                   // two shards at R=1
	threeRings                 // three shards at R=1
)

func (tp topology) String() string {
	return [...]string{"inprocess", "1ring", "1durable", "2rings", "3rings"}[tp]
}

func (tp topology) shards() int { return [...]int{0, 1, 1, 2, 3}[tp] }

// matrixCell is one run. algo, sampler and env are its class: what is
// trained. The rest are knobs that must not change a byte; their zero values
// (one worker, row layout, nothing attached, fault-free) are the oracle's.
type matrixCell struct {
	algo    Algorithm
	sampler SamplerKind // under a topology other than inProcess, a plan
	env     string      // "cn" (cooperative navigation) or "pp" (predator-prey), 3 agents
	topo    topology

	workers   int
	kv        bool // the key-value transition layout
	trace     bool // learner tracer (and, on the fabric, server tracers) at full sampling
	telemetry bool // a phase observer and an update listener: -metrics-addr and -runlog
	prefetch  bool // the learner's PrefetchSource, as marl-train always wires it
	faults    bool // faultnet drops, errors and delays on the learner→replay edge
	wrap      bool // train wrapEpisodes, past the ring wrap; the oracle trains as long
	snapshots bool // save a snapshot after every episode: -checkpoint-dir -checkpoint-every 1
}

func (c matrixCell) class() string {
	return fmt.Sprintf("%v-%v-%s", c.algo, c.sampler, c.env)
}

// knobs names the cell's settings away from the oracle's, "oracle" if none.
func (c matrixCell) knobs() string {
	var parts []string
	if c.topo != inProcess {
		parts = append(parts, c.topo.String())
	}
	if c.workers > 1 {
		parts = append(parts, fmt.Sprintf("w%d", c.workers))
	}
	for _, k := range []struct {
		on   bool
		name string
	}{{c.kv, "kv"}, {c.trace, "trace"}, {c.telemetry, "telemetry"}, {c.prefetch, "prefetch"}, {c.faults, "faults"}, {c.wrap, "wrap"}, {c.snapshots, "snapshots"}} {
		if k.on {
			parts = append(parts, k.name)
		}
	}
	if len(parts) == 0 {
		return "oracle"
	}
	return strings.Join(parts, "-")
}

// oracle is the run every cell of c's class and length must match: the
// class trained in-process on one worker for as many episodes, whatever
// topology c draws from.
func (c matrixCell) oracle() matrixCell {
	return matrixCell{algo: c.algo, sampler: c.sampler, env: c.env, workers: 1, wrap: c.wrap}
}

func (c matrixCell) episodes() int {
	if c.wrap {
		return wrapEpisodes
	}
	return matrixEpisodes
}

var (
	matrixAlgos = []Algorithm{MADDPG, MATD3}
	// marl-train -sampler's four values; the fabric serves the two plans.
	matrixSamplers = []SamplerKind{SamplerUniform, SamplerLocality, SamplerPER, SamplerIPLocality}
	matrixPlans    = []SamplerKind{SamplerUniform, SamplerLocality}
	matrixEnvs     = []string{"cn", "pp"}
	matrixTopos    = []topology{oneRing, oneDurable, twoRings, threeRings}
	offOn          = []bool{false, true}
)

// product calls f with every combination of indices below sizes, the last
// index varying fastest.
func product(f func(v []int), sizes ...int) {
	v := make([]int, len(sizes))
	for {
		f(v)
		i := len(v) - 1
		for ; i >= 0; i-- {
			if v[i]++; v[i] < sizes[i] {
				break
			}
			v[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// inProcessCells is the in-process sampler family's full product: algo ×
// sampler × env × workers{1, 4} × layout × trace × telemetry, then a
// snapshots cell per class and layout.
func inProcessCells() []matrixCell {
	var cells []matrixCell
	product(func(v []int) {
		cells = append(cells, matrixCell{
			algo: matrixAlgos[v[0]], sampler: matrixSamplers[v[1]], env: matrixEnvs[v[2]],
			workers: []int{1, 4}[v[3]], kv: offOn[v[4]], trace: offOn[v[5]], telemetry: offOn[v[6]],
		})
	}, len(matrixAlgos), len(matrixSamplers), len(matrixEnvs), 2, 2, 2, 2)
	product(func(v []int) {
		cells = append(cells, matrixCell{
			algo: matrixAlgos[v[0]], sampler: matrixSamplers[v[1]], env: matrixEnvs[v[2]], workers: 1, kv: offOn[v[3]], snapshots: true,
		})
	}, len(matrixAlgos), len(matrixSamplers), len(matrixEnvs), len(offOn))
	return cells
}

// fabricCells is the experience-store family: algo × plan × topology ×
// workers{1, 3} × prefetch × trace × faults. Its full product of 256
// HTTP-served runs does not fit the test's budget, so it is a hand-picked
// set — each knob on one ring, prefetch beside workers, faults and tracing,
// every topology, MATD3 across shards with workers and prefetch — completed
// from the product, greedily, until every pair of values of any two axes has
// run together.
func fabricCells() []matrixCell {
	const loc, uni = SamplerLocality, SamplerUniform
	must := []matrixCell{
		// Worker count in service mode, and prefetch on and off at each.
		{algo: MADDPG, sampler: loc, topo: oneRing, workers: 1},
		{algo: MADDPG, sampler: loc, topo: oneRing, workers: 3},
		{algo: MADDPG, sampler: loc, topo: oneRing, workers: 1, prefetch: true},
		{algo: MADDPG, sampler: loc, topo: oneRing, workers: 3, prefetch: true},
		// A lossy, slow wire, without and with prefetch.
		{algo: MADDPG, sampler: loc, topo: oneRing, workers: 1, faults: true},
		{algo: MADDPG, sampler: loc, topo: oneRing, workers: 1, prefetch: true, faults: true},
		// Client and server tracers, without and with prefetch.
		{algo: MADDPG, sampler: loc, topo: oneRing, workers: 1, trace: true},
		{algo: MADDPG, sampler: loc, topo: oneRing, workers: 1, trace: true, prefetch: true},
		// Shard counts and durable stores.
		{algo: MADDPG, sampler: uni, topo: oneDurable, workers: 1},
		{algo: MADDPG, sampler: loc, topo: oneDurable, workers: 1},
		{algo: MADDPG, sampler: loc, topo: twoRings, workers: 1},
		{algo: MADDPG, sampler: loc, topo: twoRings, workers: 1, prefetch: true},
		{algo: MADDPG, sampler: loc, topo: threeRings, workers: 3, prefetch: true},
		// MATD3 over shards, with workers and prefetch.
		{algo: MATD3, sampler: loc, topo: twoRings, workers: 3, prefetch: true},
		{algo: MATD3, sampler: uni, topo: threeRings, workers: 3, prefetch: true},
		// Snapshots without a replay section, on one shard and across two.
		// Their pairs are covered above, so the completion below is unmoved.
		{algo: MADDPG, sampler: loc, topo: oneRing, workers: 1, snapshots: true},
		{algo: MADDPG, sampler: loc, topo: twoRings, workers: 1, snapshots: true},
	}
	var full []matrixCell
	product(func(v []int) {
		full = append(full, matrixCell{
			algo: matrixAlgos[v[0]], sampler: matrixPlans[v[1]], topo: matrixTopos[v[2]],
			workers: []int{1, 3}[v[3]], prefetch: offOn[v[4]], trace: offOn[v[5]], faults: offOn[v[6]],
		})
	}, len(matrixAlgos), len(matrixPlans), len(matrixTopos), 2, 2, 2, 2)
	cells := append(allPairs(must, full), wrapCells()...)
	for i := range cells {
		cells[i].env = "cn"
	}
	return cells
}

// wrapCells train past the ring wrap on every single-shard topology: algo ×
// plan × {1ring, 1durable}. One shard whose ring holds as many rows as the
// in-process buffer retains the rows that buffer does, so the identity holds
// past the wrap there. k shards retain k rings' rows, so past the wrap a
// multi-shard draw covers rows the buffer has dropped and trains other
// bytes; no cell asserts it.
func wrapCells() []matrixCell {
	var single []topology
	for _, tp := range matrixTopos {
		if tp.shards() == 1 {
			single = append(single, tp)
		}
	}
	var cells []matrixCell
	product(func(v []int) {
		cells = append(cells, matrixCell{
			algo: matrixAlgos[v[0]], sampler: matrixPlans[v[1]], topo: single[v[2]], workers: 1, wrap: true,
		})
	}, len(matrixAlgos), len(matrixPlans), len(single))
	return cells
}

// allPairs returns must followed by candidates picked greedily (the first
// that covers the most new pairs) until every pair of values of two
// different fabric axes appears in some returned cell.
func allPairs(must, candidates []matrixCell) []matrixCell {
	type pair struct {
		i, j int
		a, b any
	}
	pairs := func(c matrixCell) []pair {
		v := []any{c.algo, c.sampler, c.topo, c.workers, c.prefetch, c.trace, c.faults}
		var ps []pair
		for i := range v {
			for j := i + 1; j < len(v); j++ {
				ps = append(ps, pair{i, j, v[i], v[j]})
			}
		}
		return ps
	}
	covered := make(map[pair]bool)
	cells := append([]matrixCell(nil), must...)
	for _, c := range must {
		for _, p := range pairs(c) {
			covered[p] = true
		}
	}
	for {
		best, bestNew := -1, 0
		for k, c := range candidates {
			n := 0
			for _, p := range pairs(c) {
				if !covered[p] {
					n++
				}
			}
			if n > bestNew {
				best, bestNew = k, n
			}
		}
		if best < 0 {
			return cells
		}
		cells = append(cells, candidates[best])
		for _, p := range pairs(candidates[best]) {
			covered[p] = true
		}
	}
}

// TestDeterminismMatrix runs every cell of both families against its class's
// oracle, the in-process run on one worker for as many episodes: a fabric
// draw expands the seed the in-process sampler would take, over the same
// rows. Sub-tests are TestDeterminismMatrix/<family>/<class>/<knobs>, where
// family is inprocess or fabric and knobs names the settings away from the
// oracle's (w4, kv, trace, telemetry; 1ring … 3rings, w3, prefetch, faults,
// wrap; snapshots in both), so a -run pattern can pick an axis. The all-oracle cell reruns the
// oracle: the same seed trains the same bytes twice.
func TestDeterminismMatrix(t *testing.T) {
	for _, family := range []struct {
		name  string
		cells []matrixCell
	}{{"inprocess", inProcessCells()}, {"fabric", fabricCells()}} {
		t.Run(family.name, func(t *testing.T) {
			var classes []string
			byClass := make(map[string][]matrixCell)
			for _, c := range family.cells {
				if byClass[c.class()] == nil {
					classes = append(classes, c.class())
				}
				byClass[c.class()] = append(byClass[c.class()], c)
			}
			for _, class := range classes {
				cells := byClass[class]
				t.Run(class, func(t *testing.T) {
					t.Parallel()
					wants := make(map[matrixCell]witness)
					for _, c := range cells {
						t.Run(c.knobs(), func(t *testing.T) {
							want, ok := wants[c.oracle()]
							if !ok {
								want = runCell(t, c.oracle())
								wants[c.oracle()] = want
							}
							sameWitness(t, runCell(t, c), want)
						})
					}
				})
			}
		})
	}
}

// witness is everything a run leaves that learning depends on.
type witness struct {
	ckpt    []byte    // weights, optimizer state, RNG streams
	rewards []float64 // each episode's mean reward
	updates int
}

// sameWitness fails t at the first way got differs from the oracle's want.
func sameWitness(t *testing.T, got, want witness) {
	t.Helper()
	if got.updates != want.updates {
		t.Fatalf("%d updates, the oracle ran %d", got.updates, want.updates)
	}
	for i, r := range want.rewards {
		if got.rewards[i] != r {
			t.Fatalf("episode %d reward %v, the oracle's %v", i, got.rewards[i], r)
		}
	}
	if !bytes.Equal(got.ckpt, want.ckpt) {
		t.Fatalf("checkpoint differs from the oracle's (%d vs %d bytes)", len(got.ckpt), len(want.ckpt))
	}
}

// trainerStateBytes serializes tr's full state for bit-level comparison.
func trainerStateBytes(t *testing.T, tr *Trainer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// traceTestTracer returns an enabled tracer recording every update and RPC.
func traceTestTracer(proc string) *trace.Tracer {
	tr := trace.New(proc, 1<<14)
	tr.SetSampleEvery(1)
	tr.SetEnabled(true)
	return tr
}

// runCell trains c for c.episodes() episodes, checks that each knob it
// turned took effect, and returns its witness.
func runCell(t *testing.T, c matrixCell) witness {
	t.Helper()
	cfg := smallConfig(c.algo)
	cfg.Sampler = c.sampler
	cfg.Neighbors, cfg.Refs = 8, 4
	cfg.UpdateWorkers = c.workers
	cfg.UseKVLayout = c.kv
	env := mpe.Env(mpe.NewCooperativeNavigation(3))
	if c.env == "pp" {
		env = mpe.NewPredatorPrey(3)
	}
	tr, err := NewTrainer(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	var learner *trace.Tracer
	if c.trace {
		learner = traceTestTracer("learner")
		tr.SetTracer(learner)
	}
	events := 0
	if c.telemetry {
		tr.SetPhaseObserver(telemetry.NewPhaseCollector(telemetry.NewRegistry()))
		tr.SetUpdateListener(func(UpdateEvent) { events++ })
	}
	var wired func() // checks the experience wiring once training is done
	if c.topo != inProcess {
		wired = wireExperience(t, tr, cfg, env, c, learner)
	}

	var store *resilience.Store
	if c.snapshots {
		if store, err = resilience.NewStore(t.TempDir(), 2); err != nil {
			t.Fatal(err)
		}
	}

	var w witness
	for len(w.rewards) < c.episodes() {
		done, err := tr.StepE()
		if err != nil {
			t.Fatalf("StepE: %v", err)
		}
		if done {
			w.rewards = append(w.rewards, tr.LastEpisodeReward())
			if store != nil {
				saveEpisode(t, store, tr)
			}
		}
	}
	w.ckpt, w.updates = trainerStateBytes(t, tr), tr.UpdateCount()

	if w.updates == 0 {
		t.Fatal("no update ran; the comparison is vacuous")
	}
	if c.wrap && tr.TotalSteps() <= cfg.BufferCapacity {
		t.Fatalf("%d steps never wrapped the %d-row buffer", tr.TotalSteps(), cfg.BufferCapacity)
	}
	if err := tr.Healthy(); err != nil {
		t.Fatalf("trained to an unhealthy state: %v", err)
	}
	if c.kv && tr.Profile().Duration(profiler.PhaseLayoutReorg) == 0 {
		t.Fatal("the key-value layout never timed a reorganization")
	}
	if c.telemetry && events != w.updates {
		t.Fatalf("the update listener saw %d events for %d updates", events, w.updates)
	}
	if c.trace && !hasSpan(learner, "update") {
		t.Fatal("the learner recorded no update span")
	}
	if store != nil {
		restoresNewest(t, store, cfg, env, c, w.ckpt)
	}
	if wired != nil {
		wired()
	}
	return w
}

// saveEpisode saves tr's snapshot as marl-train does at an episode's end.
func saveEpisode(t *testing.T, store *resilience.Store, tr *Trainer) {
	t.Helper()
	sections, err := tr.SnapshotSections()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(uint64(tr.EpisodeCount()), sections); err != nil {
		t.Fatal(err)
	}
}

// restoresNewest checks that the store kept the last two episodes'
// generations and that the newest restores into a fresh trainer as the
// run's final checkpoint, with the run's rows on the in-process buffer and
// none from a fabric.
func restoresNewest(t *testing.T, store *resilience.Store, cfg Config, env mpe.Env, c matrixCell, ckpt []byte) {
	t.Helper()
	n := uint64(c.episodes())
	if gens, err := store.Generations(); err != nil || len(gens) != 2 || gens[0] != n-1 || gens[1] != n {
		t.Fatalf("the store holds generations %v (%v), want [%d %d]", gens, err, n-1, n)
	}
	snap, seq, _, err := store.LoadLatest()
	if err != nil || seq != n {
		t.Fatalf("newest generation %d: %v", seq, err)
	}
	rows, hasRows := snap.Section(resilience.SectionReplay)
	if hasRows != (c.topo == inProcess) {
		t.Fatalf("the %v run's snapshot has a replay section: %v", c.topo, hasRows)
	}
	fresh, err := NewTrainer(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(trainerStateBytes(t, fresh), ckpt) {
		t.Fatal("the newest generation restores to another checkpoint")
	}
	if hasRows && fresh.Store().Len() != int(n)*cfg.MaxEpisodeLen {
		t.Fatalf("restored %d rows from a %d-byte replay section, want %d", fresh.Store().Len(), len(rows), int(n)*cfg.MaxEpisodeLen)
	}
}

func hasSpan(tracer *trace.Tracer, name string) bool {
	for _, rec := range tracer.Snapshot() {
		if rec.Name == name {
			return true
		}
	}
	return false
}

// wireExperience points tr at c's fabric of replayd HTTP servers and
// returns the checks that the fabric's knobs took effect.
func wireExperience(t *testing.T, tr *Trainer, cfg Config, env mpe.Env, c matrixCell, learner *trace.Tracer) func() {
	t.Helper()
	spec := expSpec(cfg, env)
	plan, err := cfg.SamplePlan()
	if err != nil {
		t.Fatal(err)
	}

	const edge = "learner→replay"
	client := expserve.ClientOptions{
		Timeout: 10 * time.Second, Attempts: 12, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
		JitterSeed: 1, BreakerThreshold: -1, // never fail fast: ride every injected fault out
		Conns: 4, Tracer: learner,
	}
	var server *trace.Tracer
	if c.trace {
		server = traceTestTracer("replayd")
	}
	var inj *faultnet.Injector
	if c.faults {
		inj = faultnet.New(99)
		if err := inj.SetRule(edge, faultnet.Rule{Drop: 0.08, Error: 0.08, Delay: 200 * time.Microsecond, DelayProb: 0.25}); err != nil {
			t.Fatal(err)
		}
		client.Transport = inj.RoundTripper(edge, nil)
	}
	fabric := newFabric(t, spec, c.topo, client, server)
	sharded, err := expserve.NewShardedSource(fabric, spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := expserve.NewShardedSink(fabric, "actor-0", spec)
	if err != nil {
		t.Fatal(err)
	}
	var src replay.TransitionSource = sharded
	reg := telemetry.NewRegistry()
	if c.prefetch {
		src = expserve.NewPrefetchSource(sharded, client.Conns, reg)
	}
	if err := tr.SetExperienceService(src, sink); err != nil {
		t.Fatal(err)
	}

	return func() {
		t.Helper()
		if r, d := fabric.ReplicaReads(), fabric.DegradedDraws(); r != 0 || d != 0 {
			t.Fatalf("the run left the happy path: replica_reads=%d degraded_draws=%d", r, d)
		}
		if c.faults {
			if n := inj.Counts(edge); n.Dropped == 0 && n.Errored == 0 {
				t.Fatalf("fault injection never fired (%+v)", n)
			}
		}
		if c.prefetch && reg.Counter("marl_exp_prefetch_hit_total").Value() == 0 {
			t.Fatal("prefetch never hit; no sample overlapped an update")
		}
		if c.trace {
			rpcs := make(map[uint64]bool)
			for _, rec := range learner.Snapshot() {
				if rec.Name == "shard-sample-rpc" || rec.Name == "append-rpc" {
					rpcs[rec.TraceID] = true
				}
			}
			stitched := false
			for _, rec := range server.Snapshot() {
				stitched = stitched || rpcs[rec.TraceID]
			}
			if !stitched {
				t.Fatalf("none of the server's %d spans shares a trace ID with the learner's %d RPC traces", server.Len(), len(rpcs))
			}
		}
	}
}

// newFabric starts one replayd HTTP server per shard of topo at R=1 and
// returns a client fabric routing across them. server, when non-nil, traces
// every server.
func newFabric(t *testing.T, spec replay.Spec, topo topology, client expserve.ClientOptions, server *trace.Tracer) *expserve.Fabric {
	t.Helper()
	var groups []expshard.Group
	for gi := 0; gi < topo.shards(); gi++ {
		var provider expstore.Provider = expstore.NewRing(spec)
		if topo == oneDurable {
			store, err := expstore.Open(t.TempDir(), spec, expstore.Options{SegmentRows: 128})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			provider = store
		}
		id := expshard.DefaultGroupID(gi)
		srv, err := expserve.NewServer(expserve.ServerConfig{Provider: provider, Spec: spec, ShardID: id, Tracer: server})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		t.Cleanup(func() { hs.Close(); srv.Close() })
		groups = append(groups, expshard.Group{ID: id, Members: []expshard.Member{{Addr: hs.URL}}})
	}
	fabric, err := expserve.NewFabric(groups, expserve.FabricOptions{Client: client})
	if err != nil {
		t.Fatal(err)
	}
	return fabric
}
