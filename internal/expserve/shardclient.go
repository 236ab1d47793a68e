package expserve

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"marlperf/internal/expshard"
	"marlperf/internal/f64le"
	"marlperf/internal/replay"
	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

// FabricOptions configure client-side routing over a sharded replay
// fabric.
type FabricOptions struct {
	// Client is the per-member client template. Edge is suffixed with
	// the member's group/replica position, and TotalDeadline is
	// replaced by MemberDeadline (fabric routing owns ride-through —
	// a member that does not answer within its bounded share fails
	// over to a replica instead of stalling the draw). Its Registry
	// also receives the marl_shard_* fabric metrics (nil keeps them
	// private), and its Tracer records the shard-sample spans.
	Client ClientOptions
	// MemberDeadline bounds one member's share of a routing decision
	// (stats probe, shard draw, append) before the fabric moves on.
	// Defaults to 3s.
	MemberDeadline time.Duration
	// RetryFor keeps whole-fabric operations (view refresh, draws and
	// unspooled appends with every replica of a group down) retrying
	// with backoff for this long before surfacing the failure — the
	// ride-through budget for a full shard restart. Zero tries once.
	RetryFor time.Duration
}

// fabricRetryDelay paces the outer ride-through loop.
const fabricRetryDelay = 250 * time.Millisecond

// Fabric is the client half of the sharded, replicated replay fabric:
// one Client (own circuit breaker, own connection pool) per replayd
// member, addressed through the expshard stripe. Sources fan
// sample RPCs in across shards; sinks fan replicated appends out. The
// topology is fixed when the fabric is built.
type Fabric struct {
	opts    FabricOptions
	snap    *expshard.Snapshot
	clients [][]*Client // [group][member], aligned with snap.Groups

	replicaReads  *telemetry.Counter
	degradedDraws *telemetry.Counter
	viewRefreshes *telemetry.Counter
}

// NewFabric builds the placement snapshot and one client per member.
func NewFabric(groups []expshard.Group, opts FabricOptions) (*Fabric, error) {
	if opts.MemberDeadline <= 0 {
		opts.MemberDeadline = 3 * time.Second
	}
	snap, err := expshard.BuildSnapshot(groups, 0)
	if err != nil {
		return nil, err
	}
	if opts.Client.Registry == nil {
		opts.Client.Registry = telemetry.NewRegistry()
	}
	reg := opts.Client.Registry
	reg.SetHelp("marl_shard_replica_reads_total", "Fabric reads served by a non-preferred replica because the preferred member was down.")
	reg.SetHelp("marl_shard_degraded_draws_total", "Sample draws recomputed with a shard group excluded (skip-and-reweight) because every replica was down.")
	reg.SetHelp("marl_shard_view_refreshes_total", "Fabric stream-view refreshes (one stats fan-out each).")
	reg.SetHelp("marl_shard_groups", "Shard groups in the ring snapshot.")
	reg.SetHelp("marl_shard_replicas", "Replication factor (widest member count across groups).")
	reg.Gauge("marl_shard_groups").Set(float64(len(snap.Groups)))
	reg.Gauge("marl_shard_replicas").Set(float64(snap.MaxReplicas()))
	edge := opts.Client.Edge
	if edge == "" {
		edge = "replay"
	}
	clients := make([][]*Client, len(snap.Groups))
	for gi, g := range snap.Groups {
		clients[gi] = make([]*Client, len(g.Members))
		for mi, m := range g.Members {
			member := opts.Client
			member.Edge = fmt.Sprintf("%s-%s-m%d", edge, g.ID, mi)
			member.TotalDeadline = opts.MemberDeadline
			clients[gi][mi] = NewClient(m.Addr, member)
		}
	}
	return &Fabric{
		opts:          opts,
		snap:          snap,
		clients:       clients,
		replicaReads:  reg.Counter("marl_shard_replica_reads_total"),
		degradedDraws: reg.Counter("marl_shard_degraded_draws_total"),
		viewRefreshes: reg.Counter("marl_shard_view_refreshes_total"),
	}, nil
}

// Snapshot returns the fabric's placement snapshot.
func (f *Fabric) Snapshot() *expshard.Snapshot { return f.snap }

// ReplicaReads reports fabric reads that failed over to a replica.
func (f *Fabric) ReplicaReads() uint64 { return f.replicaReads.Value() }

// DegradedDraws reports draws recomputed with a group excluded.
func (f *Fabric) DegradedDraws() uint64 { return f.degradedDraws.Value() }

// rideThrough calls try until it succeeds, reports a failure not worth
// retrying (retry false), or the RetryFor budget is spent, sleeping
// fabricRetryDelay between calls. Zero RetryFor tries once. It returns
// try's last error.
func (f *Fabric) rideThrough(try func() (retry bool, err error)) error {
	deadline := time.Now().Add(f.opts.RetryFor)
	for {
		retry, err := try()
		if err == nil || !retry || f.opts.RetryFor <= 0 || time.Now().After(deadline) {
			return err
		}
		time.Sleep(fabricRetryDelay)
	}
}

// ErrSameReplayd reports a fabric spec that names one replayd twice, under
// two spellings of its address: its member sinks would share the server's
// dedup cursors, so one would see the other's batches acknowledged as
// duplicates and dropped.
var ErrSameReplayd = errors.New("expserve: two fabric members are one replayd")

// FetchSpec probes every member, riding the RetryFor budget until one
// answers, and returns the transition spec of the first that does, for
// startup validation. Two members that report the same instance fail it
// with ErrSameReplayd.
func (f *Fabric) FetchSpec() (replay.Spec, error) {
	var spec replay.Spec
	err := f.rideThrough(func() (bool, error) {
		var lastErr error
		seen := make(map[string]string) // instance → member address
		for gi, group := range f.clients {
			for mi, c := range group {
				st, err := c.ServiceStats()
				if err != nil {
					lastErr = err
					continue
				}
				addr := f.snap.Groups[gi].Members[mi].Addr
				if other, ok := seen[st.Instance]; ok {
					return false, fmt.Errorf("%w: %s and %s (instance %s)", ErrSameReplayd, other, addr, st.Instance)
				}
				if len(seen) == 0 {
					spec = st.Spec
				}
				seen[st.Instance] = addr
			}
		}
		if len(seen) > 0 {
			return false, nil
		}
		return true, lastErr
	})
	if errors.Is(err, ErrSameReplayd) {
		return replay.Spec{}, err
	}
	if err != nil {
		return replay.Spec{}, fmt.Errorf("expserve: no fabric member reachable: %w", err)
	}
	return spec, nil
}

// fabricView freezes one sampling state: the stream view built from a
// stats fan-out and the preferred (first live) member per group. Draws
// read it via one atomic load; refreshes swap the whole thing.
type fabricView struct {
	view *expshard.View
	pref []int // preferred member index per group; -1 = none answered
}

// ShardedSource samples fabric-wide mini-batches, implementing
// replay.TransitionSource. The learner selects and the shards gather: a
// draw runs the pure (plan, viewLen, seed) selection once, here, maps every
// index through the frozen view to its group and local row, and asks each
// group for its own rows only, in batch-slot order. Each group's rows come
// back in that order and go straight into the slots that asked for them,
// so at R=1 with all shards live the batch is bit-identical to a local
// store executing the same draw, at any shard count.
//
// Degraded paths (counted, never silent): a down member fails over to
// the next replica in its group; a group with every replica down is
// excluded from a recomputed draw (skip-and-reweight over the
// shrunken stream). Neither preserves bit-identity — they preserve
// training progress.
type ShardedSource struct {
	f      *Fabric
	plan   replay.SamplePlan
	layout replay.RowLayout

	view    atomic.Pointer[fabricView]
	scratch sync.Pool // of *shardScratch
}

// groupScratch is one group's share of an in-flight draw: the batch slots
// it fills and, in the same order, the local rows that fill them.
type groupScratch struct {
	slots  []int
	locals []int
	req    []byte
	body   []byte
	rows   []float64 // decode fallback when the f64le view is unavailable
	view   []float64 // len(slots)·stride gathered floats, aliasing body or rows
	failed bool
}

// shardScratch is one in-flight fabric draw's worth of pooled buffers.
type shardScratch struct {
	idx    []int
	groups []groupScratch // one per group of the draw's view
}

// NewShardedSource validates the plan and the fabric's spec against
// the trainer's.
func NewShardedSource(f *Fabric, want replay.Spec, plan replay.SamplePlan) (*ShardedSource, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	got, err := f.FetchSpec()
	if err != nil {
		return nil, err
	}
	if got.NumAgents != want.NumAgents || got.ActDim != want.ActDim || len(got.ObsDims) != len(want.ObsDims) {
		return nil, fmt.Errorf("expserve: fabric spec %+v does not match trainer spec %+v", got, want)
	}
	for a, od := range want.ObsDims {
		if got.ObsDims[a] != od {
			return nil, fmt.Errorf("expserve: fabric obs dim %d for agent %d, trainer wants %d", got.ObsDims[a], a, od)
		}
	}
	return &ShardedSource{f: f, plan: plan, layout: replay.NewRowLayout(want)}, nil
}

// tryRefresh performs one stats fan-out (members of each group probed
// in order until one answers) and builds a fresh fabric view.
func (s *ShardedSource) tryRefresh() (*fabricView, error) {
	snap, clients := s.f.snap, s.f.clients
	g := len(snap.Groups)
	stats := make([]expshard.GroupStat, g)
	pref := make([]int, g)
	var wg sync.WaitGroup
	for gi := 0; gi < g; gi++ {
		pref[gi] = -1
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for mi, c := range clients[gi] {
				st, err := c.ServiceStats()
				if err != nil {
					continue
				}
				stats[gi] = expshard.GroupStat{Rows: uint64(st.Rows), Total: st.Total, Live: true}
				pref[gi] = mi
				return
			}
		}(gi)
	}
	wg.Wait()
	live := 0
	for _, st := range stats {
		if st.Live {
			live++
		}
	}
	if live == 0 {
		return nil, fmt.Errorf("expserve: no replay shard reachable (%d groups probed)", g)
	}
	view, err := expshard.NewView(snap.Partitions, 0, snap.Part2Group, stats)
	if err != nil {
		return nil, err
	}
	s.f.viewRefreshes.Inc()
	return &fabricView{view: view, pref: pref}, nil
}

// refreshView swaps in a fresh view, riding the RetryFor budget
// through a full-fabric outage.
func (s *ShardedSource) refreshView() (*fabricView, error) {
	var fv *fabricView
	err := s.f.rideThrough(func() (bool, error) {
		var err error
		fv, err = s.tryRefresh()
		return true, err
	})
	if err != nil {
		return nil, err
	}
	s.view.Store(fv)
	return fv, nil
}

// Len implements replay.TransitionSource: the fabric-wide sampleable
// row count. Each call refreshes the frozen view — the trainer calls
// Len at the update gate, so draws inside one update all see the
// stream state the gate saw, matching a single store's behavior
// across worker counts and prefetch settings.
func (s *ShardedSource) Len() (int, error) {
	fv, err := s.refreshView()
	if err != nil {
		return 0, err
	}
	return int(fv.view.Len()), nil
}

func (s *ShardedSource) acquireFetch() *shardScratch {
	if sc, ok := s.scratch.Get().(*shardScratch); ok {
		return sc
	}
	return &shardScratch{groups: make([]groupScratch, len(s.f.snap.Groups))}
}

func (s *ShardedSource) releaseFetch(sc *shardScratch) { s.scratch.Put(sc) }

// runFetch executes one fabric draw into sc, riding RetryFor through
// transient whole-fabric failures. Each retry first refreshes the view;
// a refresh that fails has spent its own RetryFor budget, which started
// after this one's, so the draw gives up with it.
func (s *ShardedSource) runFetch(n int, seed int64, sc *shardScratch) error {
	retrying := false
	return s.f.rideThrough(func() (bool, error) {
		if retrying {
			if _, err := s.refreshView(); err != nil {
				return false, err
			}
		}
		retrying = true
		return true, s.tryDraw(n, seed, sc)
	})
}

// tryDraw executes the draw against the current view, excluding groups
// that lose every replica mid-draw (skip-and-reweight) and redrawing
// until the live set holds still.
func (s *ShardedSource) tryDraw(n int, seed int64, sc *shardScratch) error {
	fv := s.view.Load()
	if fv == nil {
		var err error
		if fv, err = s.refreshView(); err != nil {
			return err
		}
	}
	stride := s.layout.Stride()
	if cap(sc.idx) < n {
		sc.idx = make([]int, n)
	}
	var lastErr error
	for redo := 0; redo <= len(sc.groups); redo++ {
		length := int(fv.view.Len())
		if length < 1 {
			return fmt.Errorf("expserve: fabric stream is empty")
		}
		idx := sc.idx[:n]
		if err := s.plan.FillIndices(idx, length, seed); err != nil {
			return err
		}
		sc.route(fv.view, idx)
		var wg sync.WaitGroup
		var failedAny atomic.Bool
		for gi := range sc.groups {
			gs := &sc.groups[gi]
			gs.failed = false
			if len(gs.slots) == 0 {
				continue // holds no row of this draw: every dead group, maybe more
			}
			wg.Add(1)
			go func(gi int, gs *groupScratch) {
				defer wg.Done()
				if err := s.groupFetch(fv, gi, stride, gs); err != nil {
					gs.failed = true
					failedAny.Store(true)
				}
			}(gi, gs)
		}
		wg.Wait()
		if failedAny.Load() {
			// Exclude the groups that just lost their last replica and
			// reweight the draw over the survivors.
			view := fv.view
			var err error
			for gi := range sc.groups {
				if sc.groups[gi].failed {
					if view, err = view.WithDead(gi); err != nil {
						return err
					}
				}
			}
			if view.NumLive() == 0 {
				return fmt.Errorf("expserve: every shard group is down")
			}
			s.f.degradedDraws.Inc()
			fv = &fabricView{view: view, pref: fv.pref}
			s.view.Store(fv)
			lastErr = fmt.Errorf("expserve: shard group(s) down, draw reweighted")
			continue
		}
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("expserve: fabric draw did not converge")
	}
	return lastErr
}

// route maps every drawn index through view once, handing each group the
// batch slots it fills and their local rows, in slot order.
func (sc *shardScratch) route(view *expshard.View, idx []int) {
	for gi := range sc.groups {
		gs := &sc.groups[gi]
		gs.slots, gs.locals = gs.slots[:0], gs.locals[:0]
	}
	for slot, i := range idx {
		g, local, _ := view.Map(int64(i))
		gs := &sc.groups[g]
		gs.slots = append(gs.slots, slot)
		gs.locals = append(gs.locals, int(local))
	}
}

// groupFetch fetches this group's rows of the draw from its preferred
// member, failing over through the replicas. Replies are decoded into
// gs; any non-primary member (index > 0) serving the draw counts as a
// replica read.
func (s *ShardedSource) groupFetch(fv *fabricView, gi, stride int, gs *groupScratch) error {
	req, err := encodeShardSampleRequest(gs.req[:0], shardSampleRequest{
		ShardID: s.f.snap.Groups[gi].ID,
		Stat:    fv.view.Stats[gi],
		Locals:  gs.locals,
	})
	if err != nil {
		return err
	}
	gs.req = req
	k, reqCRC := len(gs.locals), requestCRC(req)
	if want := shardReplySize(k, stride); cap(gs.body) < want {
		gs.body = make([]byte, want)
	}
	members := s.f.clients[gi]
	pref := fv.pref[gi]
	if pref < 0 || pref >= len(members) {
		pref = 0
	}
	var lastErr error
	for try := 0; try < len(members); try++ {
		mi := (pref + try) % len(members)
		c := members[mi]
		var sp trace.Span
		var hdr http.Header
		if tr := c.tracer; tr.Enabled() {
			if parent := tr.Active(); parent.Valid() {
				sp = tr.StartSpan(parent, "shard-sample-rpc")
				hdr = http.Header{trace.HeaderName: []string{trace.FormatHeader(sp.Context())}}
			}
		}
		body, err := c.doScratch(http.MethodPost, PathShardSample, "application/octet-stream", req, true, gs.body[:cap(gs.body)], hdr)
		if err != nil {
			sp.EndArg("error", 1)
			lastErr = err
			continue
		}
		if cap(body) > cap(gs.body) {
			gs.body = body
		}
		rowBytes, err := decodeShardReply(body, k, stride, reqCRC)
		if err != nil {
			sp.EndArg("error", 1)
			lastErr = err
			continue
		}
		sp.EndArg("rows", int64(k))
		gs.view = f64le.View(rowBytes, &gs.rows)
		if mi != 0 {
			// Member 0 is the group's primary; any other member serving
			// the draw is a replica read.
			s.f.replicaReads.Inc()
		}
		return nil
	}
	return fmt.Errorf("expserve: group %s: all %d members failed: %w", s.f.snap.Groups[gi].ID, len(members), lastErr)
}

// consumeFetch scatters a completed fetch's rows from each group's reply
// straight into their batch slots in dst and returns a freshly allocated
// index slice (it cannot alias pooled scratch — concurrent callers would
// race on it).
func (s *ShardedSource) consumeFetch(sc *shardScratch, n int, dst []*replay.AgentBatch) []int {
	stride := s.layout.Stride()
	for gi := range sc.groups {
		gs := &sc.groups[gi]
		for i, slot := range gs.slots {
			s.layout.SplitRowInto(dst, slot, gs.view[i*stride:(i+1)*stride])
		}
	}
	idx := make([]int, n)
	copy(idx, sc.idx[:n])
	return idx
}

// SampleBatch implements replay.TransitionSource: one fabric-wide
// draw, merged and split into per-agent tensors.
func (s *ShardedSource) SampleBatch(n int, seed int64, dst []*replay.AgentBatch) ([]int, error) {
	sc := s.acquireFetch()
	defer s.releaseFetch(sc)
	if err := s.runFetch(n, seed, sc); err != nil {
		return nil, err
	}
	return s.consumeFetch(sc, n, dst), nil
}

// ShardedSink fans replicated appends out across the fabric,
// implementing replay.TransitionSink. Each row is routed by its
// global stream index through the same time-striped placement the
// sampler inverts, then appended to every replica member of the
// owning group — R identical copies of the group's sub-stream, which
// is what lets a reader fail over to any replica without index
// translation.
type ShardedSink struct {
	f       *Fabric
	actorID string
	layout  replay.RowLayout
	subs    [][]*RemoteSink // aligned with f.clients

	// OnSpool/OnDrain observe spool diversions across all member
	// sinks; set before EnableSpool.
	OnSpool func(queued int, err error)
	OnDrain func(batches int)

	t uint64 // global stream index of the next row
}

// NewShardedSink builds one RemoteSink per fabric member, all
// publishing as actorID.
func NewShardedSink(f *Fabric, actorID string, spec replay.Spec) (*ShardedSink, error) {
	subs := make([][]*RemoteSink, len(f.clients))
	for gi, group := range f.clients {
		subs[gi] = make([]*RemoteSink, len(group))
		for mi, c := range group {
			sink, err := NewRemoteSink(c, actorID, spec)
			if err != nil {
				return nil, err
			}
			subs[gi][mi] = sink
		}
	}
	return &ShardedSink{f: f, actorID: actorID, layout: replay.NewRowLayout(spec), subs: subs}, nil
}

// SetMaxBatchRows sets the auto-flush threshold on every member sink.
func (s *ShardedSink) SetMaxBatchRows(n int) {
	for _, group := range s.subs {
		for _, sub := range group {
			sub.MaxBatchRows = n
		}
	}
}

// Add implements replay.TransitionSink: route row t to group t mod G
// and append it to every replica member.
func (s *ShardedSink) Add(obs, act [][]float64, rew []float64, nextObs [][]float64, done []float64) error {
	gi := s.t % uint64(len(s.subs))
	s.t++
	var firstErr error
	for _, sub := range s.subs[gi] {
		if err := sub.Add(obs, act, rew, nextObs, done); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.f.opts.RetryFor > 0 && isOutage(firstErr) {
		// The row is buffered; it was a member's auto-flush that failed.
		return s.Flush()
	}
	return firstErr
}

// Flush implements replay.TransitionSink: flush every member sink. A
// dead replica must not strand the live ones' rows, so one member's
// failure is reported without retrying the rest. A group that loses
// every member to an outage has nowhere to put its rows (an armed spool
// would have absorbed the outage), so Flush rides the fabric's RetryFor
// budget like draws and view refreshes do; each retry re-ships the
// failed members' identical frames, which the servers deduplicate.
func (s *ShardedSink) Flush() error {
	return s.f.rideThrough(s.flushMembers)
}

// flushMembers flushes every member sink once, fanning the frames out
// concurrently (each member is an independent server; serializing the
// fan-out would make R and the group count a latency multiplier). It
// returns the first error in group/member order, and whether some group
// lost every member to an outage.
func (s *ShardedSink) flushMembers() (groupDown bool, first error) {
	var wg sync.WaitGroup
	errs := make([][]error, len(s.subs))
	for gi, group := range s.subs {
		errs[gi] = make([]error, len(group))
		for mi, sub := range group {
			wg.Add(1)
			go func(gi, mi int, sub *RemoteSink) {
				defer wg.Done()
				errs[gi][mi] = sub.Flush()
			}(gi, mi, sub)
		}
	}
	wg.Wait()
	for _, group := range errs {
		down := true
		for _, err := range group {
			down = down && isOutage(err)
			if err != nil && first == nil {
				first = err
			}
		}
		groupDown = groupDown || down
	}
	return groupDown, first
}

// EnableSpool arms per-member disk spooling under opts.Dir (one
// subdirectory per member, so each replica's backlog drains
// independently). OnSpool/OnDrain hooks set on the ShardedSink are
// forwarded to every member sink.
func (s *ShardedSink) EnableSpool(opts SpoolOptions) error {
	for gi, group := range s.subs {
		for mi, sub := range group {
			sub.OnSpool = s.OnSpool
			sub.OnDrain = s.OnDrain
			memberOpts := opts
			memberOpts.Dir = filepath.Join(opts.Dir, fmt.Sprintf("%s-m%d", s.f.snap.Groups[gi].ID, mi))
			if err := sub.EnableSpool(memberOpts); err != nil {
				return err
			}
		}
	}
	return nil
}

// SpoolLen returns the total spooled batch count across members.
func (s *ShardedSink) SpoolLen() int {
	n := 0
	for _, group := range s.subs {
		for _, sub := range group {
			n += sub.SpoolLen()
		}
	}
	return n
}

// DrainSpool drains every member's backlog; the first error is
// returned but all members are attempted.
func (s *ShardedSink) DrainSpool() error {
	var firstErr error
	for _, group := range s.subs {
		for _, sub := range group {
			if err := sub.DrainSpool(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// ResumeCursors fast-forwards each member sink past the append
// sequence its server already applied (an actor restarting under the
// same ID must not collide with its previous incarnation's stream).
// Unreachable members are skipped — their spool (if armed) preserves
// ordering, and the dedup cursor check happens server-side anyway.
func (s *ShardedSink) ResumeCursors() {
	for _, group := range s.subs {
		for _, sub := range group {
			st, err := sub.c.ServiceStats()
			if err != nil {
				continue
			}
			if cursor, ok := st.Actors[s.actorID]; ok {
				sub.SkipTo(cursor)
			}
		}
	}
}

var (
	_ replay.TransitionSource = (*ShardedSource)(nil)
	_ replay.TransitionSink   = (*ShardedSink)(nil)
)
