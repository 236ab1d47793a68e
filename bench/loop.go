package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"marlperf/internal/core"
	"marlperf/internal/expserve"
	"marlperf/internal/policysync"
	"marlperf/internal/replay"
	"marlperf/internal/rollout"
	"marlperf/internal/serve"
	"marlperf/internal/trace"
)

// loop-lockstep is the ROADMAP's closed loop with every hop real — actor,
// replay fabric, learner, policy store, serving gateway — driven by one
// goroutine in lockstep. On two shared cores a free-running concurrent loop
// measures the scheduler; in lockstep the cycle time is the sum of the
// tiers' costs, which is what a co-located deployment pays, and every count
// repeats exactly. Batch 256 against 1600 env-steps and 128 requests per
// cycle keeps the learner below 0.6 of the cycle on one core, so the other
// four tiers stay visible.
//
// One op is one cycle: 200 rollout.Engine.Step calls over 8 envs appending
// through ShardedSink to the 2-group fabric, Flush; one UpdateAllTrainers
// sampling through ShardedSource; PublishNetworks to the policy server; the
// actor's Fetch and Engine.Install; the gateway's Fetch and Install; 128
// sequential binary /act requests over HTTP.
const (
	loopBatch     = 256
	loopEnvs      = 8
	loopSteps     = 200
	loopActs      = 128
	loopShardCap  = 8192
	loopWarmOps   = 12
	loopObsFrames = 256
)

type loopLockstep struct {
	cfg config

	fab   *fabric
	sink  replay.TransitionSink // the ShardedSink, inside a timedSink when traced
	tsink *timedSink            // traced run only
	src   replay.TransitionSource
	eng   *rollout.Engine
	tr    *core.Trainer

	polStore  *policysync.Store
	polHTTP   *httptest.Server
	polTrans  *http.Transport
	learner   *policysync.Client
	actorPol  *policysync.Client
	gwPol     *policysync.Client
	gw        *serve.Gateway
	gwHTTP    *httptest.Server
	actClient *http.Client
	actURL    string
	frames    [][]byte // pre-encoded /act observation bodies
	frameN    int

	steps, acts, warm int

	// Invariants checked after the run.
	cycles        int // ops run, warm-up included
	lastVersion   uint64
	versionErrs   int
	actorInstalls int
	gwInstalls    int
	staleReplies  int
	installs0     int // installs done by set-up before the first cycle

	tc     tierCounters
	phases phaseTimes
	sinkNs int64     // timedSink.addNs at the start of the timed section
	toSamp []float64 // first Add of a cycle → Flush ack, ms (traced only)
}

func (l *loopLockstep) blockOps() int { return 6 }

func (l *loopLockstep) setup() error {
	batch, shardCap := loopBatch, loopShardCap
	l.steps, l.acts, l.warm = loopSteps, loopActs, loopWarmOps
	if l.cfg.short {
		batch, shardCap, l.steps, l.acts, l.warm = 32, 512, 10, 8, 3
	}
	rec := l.cfg.rec

	// Replay tier.
	fab, err := newFabric(shardCap, rec)
	if err != nil {
		return err
	}
	l.fab = fab
	sink, err := expserve.NewShardedSink(fab.client, "actor-0", fab.spec)
	if err != nil {
		return err
	}
	sink.SetMaxBatchRows(1 << 30) // the cycle flushes, not the row count
	l.sink = sink
	if rec != nil {
		l.tsink = &timedSink{sink: sink}
		l.sink = l.tsink
	}
	src, err := expserve.NewShardedSource(fab.client, fab.spec, samplePlan)
	if err != nil {
		return err
	}
	l.src = src
	if rec != nil {
		l.src = spanSource{src: src, rec: rec}
	}

	// Learner. One update worker: the sample RPCs then come from the
	// driver goroutine one at a time, which is what lockstep means here.
	c := core.DefaultConfig(core.MADDPG)
	c.BatchSize = batch
	c.BufferCapacity = batch // the local buffer is never used
	c.UpdateWorkers = 1
	c.Seed = l.cfg.seed
	l.tr, err = core.NewTrainer(c, newEnv())
	if err != nil {
		return err
	}
	if err := l.tr.SetExperienceService(l.src, nil); err != nil {
		return err
	}

	// Policy tier.
	l.polStore = policysync.NewStore(nil)
	polSrv, err := policysync.NewServer(policysync.ServerConfig{Store: l.polStore})
	if err != nil {
		return err
	}
	l.polHTTP = httptest.NewServer(polSrv.Handler())
	l.polTrans = &http.Transport{MaxIdleConnsPerHost: 2, IdleConnTimeout: 90 * time.Second}
	polOpts := policysync.ClientOptions{Timeout: 30 * time.Second, Attempts: 1, JitterSeed: 1, Transport: l.polTrans}
	l.learner = policysync.NewClient(l.polHTTP.URL, polOpts)
	l.actorPol = policysync.NewClient(l.polHTTP.URL, polOpts)
	l.gwPol = policysync.NewClient(l.polHTTP.URL, polOpts)

	// Actor.
	l.eng, err = rollout.NewEngine(rollout.Config{
		NewEnv:        newEnv,
		Envs:          loopEnvs,
		Seed:          l.cfg.seed + 1,
		GumbelTau:     c.GumbelTau,
		MaxEpisodeLen: c.MaxEpisodeLen,
		Sink:          l.sink,
	})
	if err != nil {
		return err
	}

	// Serving tier. A zero window: the requests are sequential, so there
	// is never a second one to wait for.
	l.gw = serve.NewGateway(serve.Config{Window: 0})
	gwSrv, err := serve.NewServer(l.gw)
	if err != nil {
		return err
	}
	l.gwHTTP = httptest.NewServer(gwSrv.Handler())
	l.actClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, IdleConnTimeout: 90 * time.Second}, Timeout: 30 * time.Second}
	l.actURL = l.gwHTTP.URL + serve.PathAct
	rng := rand.New(rand.NewSource(l.cfg.seed + 2))
	for f := 0; f < loopObsFrames; f++ {
		l.frames = append(l.frames, serve.EncodeObsFrame(nil, randomObs(fab.spec, rng)))
	}

	// First policy out, so the actor and the gateway can act at all.
	if err := l.distribute(); err != nil {
		return err
	}
	l.installs0 = 1

	// Prefill through the actor path until both shards have wrapped, so
	// the timed section never crosses the fill-to-wrap transition.
	for int(l.eng.TotalSteps()) < fab.rowsToWrap() {
		if err := l.act(); err != nil {
			return err
		}
	}
	for i := 0; i < l.warm; i++ {
		if err := l.op(-1 - i); err != nil {
			return fmt.Errorf("warm cycle %d: %w", i, err)
		}
	}
	return nil
}

func (l *loopLockstep) startTimed() {
	l.tc.start(l.fab)
	l.phases.start(l.tr.Profile())
	if l.tsink != nil {
		l.sinkNs = l.tsink.addNs
	}
	l.toSamp = l.toSamp[:0]
}

func (l *loopLockstep) stopTimed() {
	l.tc.stop(l.fab)
	l.phases.stop(l.tr.Profile())
	if l.tsink != nil {
		l.sinkNs = l.tsink.addNs - l.sinkNs
	}
}

// act runs one cycle's rollout and flushes it to the fabric.
func (l *loopLockstep) act() error {
	rec := l.cfg.rec
	id := rec.enter("loop.actor")
	for s := 0; s < l.steps; s++ {
		sid := rec.enter("rollout.step")
		_, err := l.eng.Step()
		rec.leave(sid)
		if err != nil {
			return err
		}
	}
	rec.leave(id)

	id = rec.enter("loop.ingest")
	cid := rec.enter("expserve.append_client")
	err := l.sink.Flush()
	rec.leave(cid)
	rec.leave(id)
	if l.tsink != nil {
		l.toSamp = append(l.toSamp, ms(float64(time.Since(l.tsink.firstAdd))))
	}
	return err
}

// distribute publishes the learner's actors and has the actor and the
// gateway each fetch and install the new version.
func (l *loopLockstep) distribute() error {
	rec := l.cfg.rec
	ctx := context.Background()

	id := rec.enter("policysync.publish")
	v, err := l.learner.PublishNetworks(uint64(l.tr.UpdateCount()), l.tr.ActorNetworks())
	rec.leave(id)
	if err != nil {
		return err
	}
	if v != l.lastVersion+1 {
		l.versionErrs++
	}
	l.lastVersion = v

	id = rec.enter("policysync.fetch")
	snap, err := l.actorPol.Fetch(ctx, l.eng.PolicyVersion(), 0)
	rec.leave(id)
	if err != nil {
		return err
	}
	if snap == nil || snap.Version != v {
		return fmt.Errorf("actor fetched %v after publishing v%d", snap, v)
	}
	id = rec.enter("rollout.install")
	err = l.eng.Install(snap.Version, snap.Agents)
	rec.leave(id)
	if err != nil {
		return err
	}
	l.actorInstalls++

	head, _ := l.gw.Versions()
	id = rec.enter("policysync.fetch")
	snap, err = l.gwPol.Fetch(ctx, head, 0)
	rec.leave(id)
	if err != nil {
		return err
	}
	if snap == nil || snap.Version != v {
		return fmt.Errorf("gateway fetched %v after publishing v%d", snap, v)
	}
	id = rec.enter("serve.install")
	err = l.gw.Install(snap.Version, snap.Updates, snap.Agents, trace.Context{})
	rec.leave(id)
	if err != nil {
		return err
	}
	l.gwInstalls++
	return nil
}

// actOnce sends one binary /act request and checks the reply's version.
func (l *loopLockstep) actOnce() error {
	body := l.frames[l.frameN%len(l.frames)]
	l.frameN++
	req, err := http.NewRequest(http.MethodPost, l.actURL, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := l.actClient.Do(req)
	if err != nil {
		return err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/act answered %d: %s", resp.StatusCode, bytes.TrimSpace(reply))
	}
	version, actions, err := serve.DecodeActReply(reply)
	if err != nil {
		return err
	}
	if version != l.lastVersion || len(actions) != l.fab.spec.NumAgents {
		l.staleReplies++
	}
	return nil
}

func (l *loopLockstep) op(int) error {
	rec := l.cfg.rec
	l.cycles++
	if err := l.act(); err != nil {
		return err
	}

	id := rec.enter("loop.learner")
	// Len refreshes the source's frozen view of the fabric, as the
	// trainer's own update gate does before every update.
	if _, err := l.src.Len(); err != nil {
		return err
	}
	uid := rec.enter("core.update")
	l.tr.UpdateAllTrainers()
	rec.leave(uid)
	if err := l.tr.ExperienceErr(); err != nil {
		return err
	}
	rec.leave(id)

	id = rec.enter("loop.policy")
	if err := l.distribute(); err != nil {
		return err
	}
	rec.leave(id)

	id = rec.enter("loop.serve")
	for k := 0; k < l.acts; k++ {
		aid := rec.enter("serve.act")
		err := l.actOnce()
		rec.leave(aid)
		if err != nil {
			return err
		}
	}
	rec.leave(id)
	return nil
}

// check: policy versions rose by exactly one per publish; the actor and the
// gateway each installed once per cycle; every env-step the actor took is
// in the fabric, once; every /act reply carried the head version.
func (l *loopLockstep) check(ops int) (int, error) {
	steps, rows := l.eng.TotalSteps(), l.fab.totalRows()
	fmt.Fprintf(l.cfg.log, "loop-lockstep: %d cycles, policy v%d, installs actor %d gateway %d, %d env-steps, %d rows ingested, %d stale /act replies\n",
		l.cycles, l.lastVersion, l.actorInstalls, l.gwInstalls, steps, rows, l.staleReplies)
	want := l.cycles + l.installs0
	switch {
	case l.cycles != ops+l.warm:
		return ops, fmt.Errorf("ran %d cycles, want %d", l.cycles, ops+l.warm)
	case l.versionErrs != 0:
		return l.versionErrs, fmt.Errorf("%d publishes did not advance the version by one", l.versionErrs)
	case l.lastVersion != uint64(want) || l.actorInstalls != want || l.gwInstalls != want:
		return ops, fmt.Errorf("after %d publishes: version %d, actor installs %d, gateway installs %d", want, l.lastVersion, l.actorInstalls, l.gwInstalls)
	case rows != steps:
		return ops, fmt.Errorf("actor took %d env-steps, fabric ingested %d rows", steps, rows)
	case l.fab.dupBatches() != 0:
		return ops, fmt.Errorf("%d append batches were acknowledged as duplicates", l.fab.dupBatches())
	case l.staleReplies != 0:
		return l.staleReplies, fmt.Errorf("%d /act replies did not carry the head version", l.staleReplies)
	}
	if err := l.tr.Healthy(); err != nil {
		return ops, err
	}
	return 0, nil
}

func (l *loopLockstep) layers(sec *section, sp *spanData, m layerSet) {
	m.set("core.update_ms", sp.meanMs("core.update"))
	m.set("core.update_self_ms", sp.selfMeanMs("core.update"))
	l.phases.report(m)
	setRPCSpans(m, sp, "sample")
	setRPCSpans(m, sp, "append")
	l.tc.report(m, sec)

	step := sp.get("rollout.step")
	m.set("rollout.step_ms", sp.meanMs("rollout.step"))
	if step.totalNs > 0 {
		m.set("rollout.env_steps_per_s", float64(step.count*loopEnvs)/(float64(step.totalNs)/1e9))
		m.set("rollout.sink_share", float64(l.sinkNs)/float64(step.totalNs))
	}
	m.set("policysync.publish_ms", sp.meanMs("policysync.publish"))
	m.set("policysync.fetch_ms", sp.meanMs("policysync.fetch"))
	m.set("policysync.publish_to_act_ms", publishToAct(sp.spans))
	m.set("serve.install_ms", sp.meanMs("serve.install"))
	act := sp.durations("serve.act")
	m.set("serve.act_p50_us", median(act)/1e3)
	m.set("serve.act_p95_us", percentile(act, 0.95)/1e3)
	m.set("loop.step_to_sampleable_ms", median(l.toSamp))

	// Each tier's share of the cycle. The sample share is the learner's
	// time inside its experience source (view refresh and draws); the
	// learner share is the rest of the learner's span.
	cycle := float64(sec.endNs - sec.startNs)
	sample := float64(sp.get("expserve.sample_client").totalNs + sp.get("expserve.len_client").totalNs)
	m.set("loop.share.actor", float64(sp.get("loop.actor").totalNs)/cycle)
	m.set("loop.share.ingest", float64(sp.get("loop.ingest").totalNs)/cycle)
	m.set("loop.share.sample", sample/cycle)
	m.set("loop.share.learner", (float64(sp.get("loop.learner").totalNs)-sample)/cycle)
	m.set("loop.share.policy", float64(sp.get("loop.policy").totalNs)/cycle)
	m.set("loop.share.serve", float64(sp.get("loop.serve").totalNs)/cycle)
}

// publishToAct is the mean time from the start of an op's publish to the
// end of the actor's install of that version.
func publishToAct(spans []span) float64 {
	start := make(map[int32]int64)
	var lags []float64
	for _, s := range spans {
		switch s.name {
		case "policysync.publish":
			start[s.op] = s.start
		case "rollout.install":
			if t, ok := start[s.op]; ok {
				lags = append(lags, float64(s.end-t))
			}
		}
	}
	return ms(mean(lags))
}

func (l *loopLockstep) floors(m floorSet) {
	floorKernels(m, l.tr.JointDim(), l.tr.Config().BatchSize, l.cfg.seed)
	floorStore(m, l.fab, l.fab.rings[0], l.tr.Config().BatchSize, l.cfg.seed)
	floorLoopback(m, l.tr.Config().BatchSize/fabricGroups*l.fab.rings[0].Layout().Stride()*8)
	floorEnv(m, l.cfg.seed)
	floorPolicy(m, l.tr)
	floorGateway(m, l.gw, l.fab.spec, l.cfg.seed)
}

func (l *loopLockstep) close() {
	if l.gwHTTP != nil {
		l.gwHTTP.Close()
	}
	if l.gw != nil {
		_ = l.gw.Drain(5 * time.Second) // stops the batch loop; nothing is in flight
	}
	if l.actClient != nil {
		l.actClient.CloseIdleConnections()
	}
	if l.polHTTP != nil {
		l.polHTTP.Close()
	}
	if l.polStore != nil {
		l.polStore.Close()
	}
	if l.polTrans != nil {
		l.polTrans.CloseIdleConnections()
	}
	if l.tr != nil {
		l.tr.Close()
	}
	if l.fab != nil {
		l.fab.close()
	}
}
