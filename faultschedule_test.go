package marlperf_test

import (
	"context"
	"errors"
	"fmt"
	"hash/crc64"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"marlperf/internal/core"
	"marlperf/internal/expserve"
	"marlperf/internal/expshard"
	"marlperf/internal/expstore"
	"marlperf/internal/f64le"
	"marlperf/internal/faultnet"
	"marlperf/internal/mpe"
	"marlperf/internal/policysync"
	"marlperf/internal/replay"
	"marlperf/internal/rollout"
	"marlperf/internal/telemetry"
)

// faultSeeds is the fixed seed list TestFaultSchedules explores.
var faultSeeds = []int64{2, 3, 6, 12, 14, 15, 17, 19, 22, 28, 32, 125}

// TestFaultSchedules drives the closed loop — an actor, a learner, the
// replay fabric and the policy service — from one goroutine through seeded
// fault schedules. At quiescence every member of a group must hold exactly
// the rows produced for the group (none lost, none doubled, replicas
// alike), and the policy versions the actor fetched and the learner
// published must strictly increase.
func TestFaultSchedules(t *testing.T) {
	faultnet.Explore(t, faultSeeds, func(seed int64) []faultnet.Event { return planFaults(seed).events }, runFaults)
}

const faultAttempts = 2 // tries per request on every client

// faultPlan is one seed's schedule: a topology and the events run on it.
// replicaReads says a primary dies under a current replica, so some draw
// must be served by the replica; liveDegraded that it dies while its
// replica lags the learner's view, so some draw must drop the group with
// the replica alive (no other member dies in such a schedule).
type faultPlan struct {
	n                          int // shard groups, and members per group
	events                     []faultnet.Event
	replicaReads, liveDegraded bool
}

// planFaults draws a schedule from seed. An edge is client→member
// (g<group>m<replica>, or policy) and the request kind, the last element of
// its path: "actor→g0m1 append" counts the actor's appends to group 0's
// replica, "actor→g0m1" all its requests to it.
func planFaults(seed int64) faultPlan {
	rng := rand.New(rand.NewSource(seed))
	p := faultPlan{n: 1 + rng.Intn(2)}
	member := func() string { return fmt.Sprintf("g%dm%d", rng.Intn(p.n), rng.Intn(p.n)) }
	// A killed member restarts a few learner requests later: only the
	// learner's edge is sure to advance (a lone replayd holds the learner
	// in its ride-through loop), and the first faultAttempts of them fail,
	// so the learner's client gives up on the dead member at least once.
	kill := func(e faultnet.Event, m string) faultnet.Event {
		e.Do, e.Until, e.Span, e.Undo = "kill "+m, "learner→"+m, faultAttempts+1+rng.Intn(3), "restart "+m
		return e
	}
	switch m := member(); {
	case p.n == 2 && rng.Intn(3) == 0:
		// Group 0's replica misses two actor appends, so the learner's view,
		// taken from the primary, holds rows the replica lacks; then the
		// primary dies at the learner's next draw from it.
		p.events = append(p.events,
			faultnet.Event{Edge: "actor→g0m1 append", Nth: 1 + rng.Intn(3), Fault: faultnet.Partition, Until: "actor→g0m1 append", Span: 2 * faultAttempts},
			kill(faultnet.Event{Edge: "learner→g0m0 shard-sample", After: 1, Nth: 1}, "g0m0"))
		p.liveDegraded = true
	case rng.Intn(3) == 0: // before apply: the member dies as an append reaches it
		p.events = append(p.events, kill(faultnet.Event{Edge: "actor→" + m + " append", Nth: 1 + rng.Intn(4)}, m))
	case rng.Intn(2) == 0: // after apply: the member applies an append, then dies before the ack
		edge := []string{"actor", "learner"}[rng.Intn(2)] + "→" + m + " append"
		p.events = append(p.events, kill(faultnet.Event{Edge: edge, Nth: 1 + rng.Intn(4), Fault: faultnet.LoseReply}, m))
	case p.n == 2 && strings.HasSuffix(m, "m0"): // a primary dies at a draw its replica serves
		p.events = append(p.events, kill(faultnet.Event{Edge: "learner→" + m + " shard-sample", Nth: 1 + rng.Intn(6)}, m))
		p.replicaReads = true
	default:
		p.events = append(p.events, kill(faultnet.Event{Edge: "learner→" + m, Nth: 2 + rng.Intn(10)}, m))
	}
	if rng.Intn(2) == 0 {
		edge := []string{"actor→policy", "learner→policy"}[rng.Intn(2)]
		p.events = append(p.events, faultnet.Event{Edge: edge, Nth: 2 + rng.Intn(6), Fault: faultnet.Partition, Until: edge, Span: 2 + rng.Intn(7)})
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		e := faultnet.Event{Edge: "actor→" + member() + " append", Nth: 1 + rng.Intn(6)}
		if rng.Intn(2) == 0 {
			e = faultnet.Event{Edge: "learner→" + member(), Nth: 1 + rng.Intn(12)}
		}
		e.Fault = []faultnet.Fault{faultnet.Drop, faultnet.Error, faultnet.Delay, faultnet.LoseReply}[rng.Intn(4)]
		p.events = append(p.events, e)
	}
	return p
}

// faultMember is one replayd. Killing it abandons its server and store
// unclosed, as a SIGKILL would, and aborts every later connection;
// restarting it reopens both from its directory.
type faultMember struct {
	name, shard, dir string
	spec             replay.Spec
	srv              atomic.Pointer[expserve.Server] // nil while dead
	store            *expstore.Store
}

func (m *faultMember) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := m.srv.Load()
	if s == nil {
		panic(http.ErrAbortHandler)
	}
	s.ServeHTTP(w, r)
}

func (m *faultMember) start() (err error) {
	if m.store, err = expstore.Open(filepath.Join(m.dir, "store"), m.spec, expstore.Options{SegmentRows: 64}); err == nil {
		var srv *expserve.Server
		srv, err = expserve.NewServer(expserve.ServerConfig{Provider: m.store, Spec: m.spec, ShardID: m.shard})
		m.srv.Store(srv)
	}
	return err
}

// rowLedger digests every row a producer hands its sink, under the group
// the ShardedSink routes it to: row t goes to partition t mod Partitions.
type rowLedger struct {
	*expserve.ShardedSink
	layout replay.RowLayout
	snap   *expshard.Snapshot
	rows   [][]uint64 // by group, shared by the producers
	t      uint64
}

func (l *rowLedger) Add(obs, act [][]float64, rew []float64, nextObs [][]float64, done []float64) error {
	row := make([]float64, l.layout.Stride())
	l.layout.PackRow(row, obs, act, rew, nextObs, done)
	g := l.snap.Part2Group[l.t%uint64(l.snap.Partitions)]
	l.t++
	l.rows[g] = append(l.rows[g], rowDigest(f64le.Bytes(row)))
	return l.ShardedSink.Add(obs, act, rew, nextObs, done)
}

var crcTable = crc64.MakeTable(crc64.ECMA)

func rowDigest(b []byte) uint64 { return crc64.Checksum(b, crcTable) }

// storedDigests digests every row a store holds, sorted.
func storedDigests(st *expstore.Store, stride int) []uint64 {
	idx, out := make([]int, st.RowCount()), make([]uint64, st.RowCount())
	buf := make([]byte, 8*stride*len(idx))
	for i := range idx {
		idx[i] = i
	}
	st.GatherEncodeLE(idx, buf)
	for i := range out {
		out[i] = rowDigest(buf[8*stride*i : 8*stride*(i+1)])
	}
	slices.Sort(out)
	return out
}

// runFaults runs events, a prefix of planFaults(seed).events, on a fresh loop
// and returns the first broken invariant, or an ErrVacuous if it proved nothing.
func runFaults(t *testing.T, seed int64, events []faultnet.Event) error {
	plan := planFaults(seed)
	env := mpe.NewCooperativeNavigation(3)
	cfg := core.DefaultConfig(core.MADDPG)
	cfg.Seed, cfg.BatchSize, cfg.BufferCapacity, cfg.HiddenSize, cfg.UpdateEvery, cfg.UpdateWorkers = seed, 32, 4096, 16, 8, 1
	spec := replay.Spec{NumAgents: 3, ObsDims: env.ObsDims(), ActDim: env.NumActions(), Capacity: cfg.BufferCapacity}
	stride, dir := replay.NewRowLayout(spec).Stride(), t.TempDir()
	must := func(err error) { // a harness failure, not a broken invariant
		if err != nil {
			t.Fatal(err)
		}
	}

	// The fabric, one listener per member, and the policy service.
	members := map[string]*faultMember{}
	hosts := map[string]string{} // listener address → member or "policy"
	var groups []expshard.Group
	for g := 0; g < plan.n; g++ {
		group := expshard.Group{ID: expshard.DefaultGroupID(g)}
		for r := 0; r < plan.n; r++ {
			m := &faultMember{name: fmt.Sprintf("g%dm%d", g, r), shard: group.ID, spec: spec}
			m.dir = filepath.Join(dir, m.name)
			must(m.start())
			hs := httptest.NewServer(m)
			defer hs.Close()
			members[m.name], hosts[hs.Listener.Addr().String()] = m, m.name
			group.Members = append(group.Members, expshard.Member{Addr: hs.URL})
		}
		groups = append(groups, group)
	}
	polSrv, err := policysync.NewServer(policysync.ServerConfig{Store: policysync.NewStore(nil)})
	must(err)
	polHTTP := httptest.NewServer(polSrv)
	defer polHTTP.Close()
	hosts[polHTTP.Listener.Addr().String()] = "policy"

	// Clients as the binaries build them, on edges the schedule counts.
	in := faultnet.New(seed)
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	options := func(client string, reg *telemetry.Registry) expserve.ClientOptions {
		return expserve.ClientOptions{
			Attempts: faultAttempts, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, JitterSeed: 1, BreakerThreshold: -1, Registry: reg,
			Transport: in.Route(func(r *http.Request) string { return client + "→" + hosts[r.URL.Host] + " " + path.Base(r.URL.Path) }, transport),
		}
	}
	produced := make([][]uint64, plan.n)
	fabric := func(client string, reg *telemetry.Registry, retryFor time.Duration, spool bool) (*expserve.Fabric, *rowLedger) {
		f, err := expserve.NewFabric(groups, expserve.FabricOptions{Client: options(client, reg), MemberDeadline: time.Minute, RetryFor: retryFor})
		must(err)
		sink, err := expserve.NewShardedSink(f, client, spec)
		must(err)
		if spool {
			must(sink.EnableSpool(expserve.SpoolOptions{Dir: filepath.Join(dir, "spool-"+client), Registry: reg}))
		}
		return f, &rowLedger{ShardedSink: sink, layout: replay.NewRowLayout(spec), snap: f.Snapshot(), rows: produced}
	}

	// The actor, as marl-actor runs it: a spooling sink, no ride-through.
	_, actorSink := fabric("actor", nil, 0, true)
	actorSink.SetMaxBatchRows(16)
	eng, err := rollout.NewEngine(rollout.Config{
		NewEnv: func() mpe.Env { return mpe.NewCooperativeNavigation(3) }, Envs: 2, Seed: seed,
		GumbelTau: cfg.GumbelTau, MaxEpisodeLen: cfg.MaxEpisodeLen, Sink: actorSink,
	})
	must(err)
	actorPol := policysync.NewClient(polHTTP.URL, options("actor", nil))

	// The learner, as marl-train runs it with -replay-retry: one worker, no
	// prefetch, its own rows sent back — through a spool where a replica can
	// die, since a sink without one fails while any member is down.
	learnerReg := telemetry.NewRegistry()
	learnerFabric, learnerSink := fabric("learner", learnerReg, time.Minute, plan.n > 1)
	tr, err := core.NewTrainer(cfg, env)
	must(err)
	defer tr.Close()
	src, err := expserve.NewShardedSource(learnerFabric, spec, replay.SamplePlan{Strategy: replay.PlanUniform})
	must(err)
	must(tr.SetExperienceService(src, learnerSink))
	learnerPol := policysync.NewClient(polHTTP.URL, options("learner", learnerReg))
	var published, fetched []uint64
	publish := func() {
		if v, err := learnerPol.PublishNetworks(uint64(tr.UpdateCount()), tr.ActorNetworks()); err == nil {
			published = append(published, v)
		}
	}
	publish()

	// The loop, in lockstep: a policy fetch in place of the syncer's
	// long-poll, an actor step, a learner step. The schedule starts with the
	// learner's first update. An update ran under a fault if a window was
	// open when its iteration began or a kill opened one during it (a kill's
	// window closes only on a learner request, so one the actor step opens
	// is still open when the learner's step starts).
	var kills atomic.Int64
	act := func(action string) error {
		verb, name, _ := strings.Cut(action, " ")
		m := members[name]
		switch dead := m.srv.Load() == nil; {
		case verb == "kill" && !dead:
			kills.Add(1)
			m.srv.Store(nil)
			return nil
		case verb == "restart" && dead:
			return m.start()
		}
		return fmt.Errorf("%s is already %sed", name, verb)
	}
	underFault, steps := 0, 0
	windowUpdates := map[int]int{}
	for ; steps < 1000; steps++ {
		open, done := in.State()
		if done && tr.UpdateCount() >= 4 && len(fetched) >= 2 {
			break
		}
		killed, updates := kills.Load(), tr.UpdateCount()
		if steps%4 == 0 {
			if snap, err := actorPol.Fetch(context.Background(), eng.PolicyVersion(), 0); err == nil && snap != nil {
				fetched = append(fetched, snap.Version)
				must(eng.Install(snap.Version, snap.Agents))
			}
		}
		if _, err := eng.Step(); err != nil {
			return fmt.Errorf("actor step %d: %w", steps, err)
		}
		if _, err := tr.StepE(); err != nil {
			return fmt.Errorf("learner step %d: %w", steps, err)
		}
		if tr.UpdateCount() == updates {
			continue
		}
		if updates == 0 {
			in.Play(events, act)
		}
		if len(open) > 0 || kills.Load() > killed {
			underFault++
		}
		for _, i := range open {
			windowUpdates[i]++
		}
		publish()
	}
	_, done := in.State()

	// Quiescence: heal every fault, flush both sinks, drain the spools.
	report, err := in.Heal()
	must(err)
	if err := errors.Join(actorSink.Flush(), tr.FlushExperience(), actorSink.DrainSpool(), learnerSink.DrainSpool()); err != nil {
		return err
	}
	if n := actorSink.SpoolLen() + learnerSink.SpoolLen(); n > 0 {
		return fmt.Errorf("%d spooled batches left after the drain", n)
	}
	vacuous := func(what string) error { return fmt.Errorf("%w: %s", faultnet.ErrVacuous, what) }
	if !done {
		return vacuous("not every event fired and closed:\n  " + strings.Join(report, "\n  "))
	}

	// The invariants.
	var sums []string
	for g, group := range groups {
		want := slices.Clone(produced[g])
		slices.Sort(want)
		for r := range group.Members {
			m := members[fmt.Sprintf("g%dm%d", g, r)]
			if got := storedDigests(m.store, stride); !slices.Equal(got, want) {
				return fmt.Errorf("%s holds %d rows, not the %d produced for its group: rows lost, doubled or diverged from its replica", m.name, len(got), len(want))
			}
		}
		sums = append(sums, fmt.Sprintf("g%d %d rows %016x", g, len(want), rowDigest([]byte(fmt.Sprint(want)))))
	}
	increasing := func(vs []uint64) bool { return slices.IsSorted(vs) && len(slices.Compact(slices.Clone(vs))) == len(vs) }
	if !increasing(fetched) || !increasing(published) {
		return fmt.Errorf("policy versions went back: fetched %v, published %v", fetched, published)
	}
	t.Logf("seed=%d events=%d/%d %s\n  %s\n  steps=%d updates=%d fetched=%v published=%v replica_reads=%d degraded_draws=%d under_fault=%d",
		seed, len(events), len(plan.events), strings.Join(sums, "; "), strings.Join(report, "\n  "), steps, tr.UpdateCount(),
		fetched, published, learnerFabric.ReplicaReads(), learnerFabric.DegradedDraws(), underFault)

	// What the run had to exercise to prove anything.
	switch {
	case len(fetched) < 2:
		return vacuous("the actor installed fewer than 2 policy versions")
	case underFault == 0:
		return vacuous("no learner update ran while a fault was active")
	case plan.replicaReads && learnerFabric.ReplicaReads() == 0:
		return vacuous("a primary died under a current replica, but no draw was served by a replica")
	case plan.liveDegraded && learnerFabric.DegradedDraws() == 0:
		return vacuous("a primary died under a lagging replica, but no draw dropped its group with the replica alive")
	}
	for i, e := range events {
		if e.Edge == "learner→policy" && windowUpdates[i] == 0 {
			return vacuous(fmt.Sprintf("the learner ran no update while its publishes were partitioned (event %d)", i))
		}
		m := members[strings.TrimPrefix(e.Do, "kill ")]
		if m != nil && learnerReg.Counter("marl_retry_giveup_total", "edge", "replay-"+m.shard+"-m"+m.name[3:]).Value() == 0 {
			return vacuous(fmt.Sprintf("the learner's client never gave up on %s while it was dead (event %d)", m.name, i))
		}
	}
	return nil
}
