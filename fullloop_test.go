package marlperf_test

import (
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"marlperf/internal/core"
	"marlperf/internal/expserve"
	"marlperf/internal/expshard"
	"marlperf/internal/expstore"
	"marlperf/internal/mpe"
	"marlperf/internal/policysync"
	"marlperf/internal/replay"
	"marlperf/internal/rollout"
)

// TestFullLoopActorLearnerPolicySync closes the distributed loop in one
// process: an experience service, a policy service, a learner, and a
// vectorized actor wired exactly as the five-process deployment would be
// (learner → policyd → actor → replayd → learner), with the actor on its own
// goroutine so the race detector covers every cross-component boundary.
//
// The learner's sink is nil, so the only transitions the experience service
// ever holds come from the actor — every learner update is proof the
// actor-fed path works end to end. The actor starts from the learner's
// initial publish and must observe at least one further hot-swap as the
// learner republishes after each update.
func TestFullLoopActorLearnerPolicySync(t *testing.T) {
	const (
		agents       = 3
		actorEnvs    = 4
		syncEvery    = 3
		wantUpdates  = 5
		wantInstalls = 2
	)
	cfg := core.DefaultConfig(core.MADDPG)
	cfg.BatchSize = 32
	cfg.BufferCapacity = 4096
	cfg.WarmupSize = 64
	cfg.UpdateEvery = 10

	env := mpe.NewPredatorPrey(agents)
	spec := replay.Spec{
		NumAgents: env.NumAgents(),
		ObsDims:   env.ObsDims(),
		ActDim:    env.NumActions(),
		Capacity:  cfg.BufferCapacity,
	}

	// Experience service (the marl-replayd role), volatile ring provider.
	expSrv, err := expserve.NewServer(expserve.ServerConfig{Provider: expstore.NewRing(spec), Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer expSrv.Close()
	expHTTP := httptest.NewServer(expSrv.Handler())
	defer expHTTP.Close()

	// Policy service (the marl-policyd role).
	polSrv, err := policysync.NewServer(policysync.ServerConfig{Store: policysync.NewStore(nil)})
	if err != nil {
		t.Fatal(err)
	}
	polHTTP := httptest.NewServer(polSrv.Handler())
	defer polHTTP.Close()

	// Learner: samples from the experience service only (nil sink keeps its
	// own env interactions out of the shared store).
	tr, err := core.NewTrainer(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Learner and actor each route through their own one-group fabric,
	// what a plain -replay-addr builds in their processes.
	newFabric := func() (*expserve.Fabric, error) {
		groups, err := expshard.ParseSpec(expHTTP.URL)
		if err != nil {
			return nil, err
		}
		return expserve.NewFabric(groups, expserve.FabricOptions{})
	}
	learnerFabric, err := newFabric()
	if err != nil {
		t.Fatal(err)
	}
	src, err := expserve.NewShardedSource(learnerFabric, spec, replay.SamplePlan{Strategy: replay.PlanUniform})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetExperienceService(src, nil); err != nil {
		t.Fatal(err)
	}

	learnerPol := policysync.NewClient(polHTTP.URL, policysync.ClientOptions{})
	publish := func() {
		if _, err := learnerPol.PublishNetworks(uint64(tr.UpdateCount()), tr.ActorNetworks()); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	publish() // v1: the fresh policy the actor starts from

	// Actor goroutine: vectorized rollout engine feeding the experience
	// service, hot-swapping weights from the policy service every syncEvery
	// engine steps.
	var installs atomic.Uint64
	stop := make(chan struct{})
	actorErr := make(chan error, 1)
	go func() {
		actorErr <- func() error {
			actorFabric, err := newFabric()
			if err != nil {
				return err
			}
			sink, err := expserve.NewShardedSink(actorFabric, "actor-0", spec)
			if err != nil {
				return err
			}
			sink.SetMaxBatchRows(16)
			eng, err := rollout.NewEngine(rollout.Config{
				NewEnv:        func() mpe.Env { return mpe.NewPredatorPrey(agents) },
				Envs:          actorEnvs,
				Seed:          99,
				GumbelTau:     cfg.GumbelTau,
				MaxEpisodeLen: cfg.MaxEpisodeLen,
				Sink:          sink,
			})
			if err != nil {
				return err
			}
			syn := policysync.NewSyncer(
				policysync.NewClient(polHTTP.URL, policysync.ClientOptions{Timeout: 2 * time.Second}),
				500*time.Millisecond)
			syn.Start()
			defer syn.Close()
			first := syn.WaitFirst(10 * time.Second)
			if first == nil {
				t.Error("actor never saw a first policy snapshot")
				return nil
			}
			if err := eng.Install(first.Version, first.Agents); err != nil {
				return err
			}
			installs.Add(1)
			for step := 0; ; step++ {
				select {
				case <-stop:
					return sink.Flush()
				default:
				}
				if step%syncEvery == 0 {
					if snap := syn.Latest(); snap != nil {
						eng.NoteKnownVersion(snap.Version)
						if snap.Version > eng.PolicyVersion() {
							if err := eng.Install(snap.Version, snap.Agents); err != nil {
								return err
							}
							installs.Add(1)
						}
					}
				}
				if _, err := eng.Step(); err != nil {
					return err
				}
			}
		}()
	}()

	// Learner loop: step until wantUpdates updates have trained off
	// actor-fed replay, republishing after every one.
	deadline := time.Now().Add(90 * time.Second)
	published := tr.UpdateCount()
	for tr.UpdateCount() < wantUpdates {
		if time.Now().After(deadline) {
			t.Fatalf("learner reached only %d/%d updates before deadline", tr.UpdateCount(), wantUpdates)
		}
		if _, err := tr.StepE(); err != nil {
			t.Fatal(err)
		}
		if n := tr.UpdateCount(); n > published {
			published = n
			publish()
		}
	}

	// Let the actor catch at least one republished version before stopping.
	for installs.Load() < wantInstalls && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	if err := <-actorErr; err != nil {
		t.Fatalf("actor: %v", err)
	}

	if got := installs.Load(); got < wantInstalls {
		t.Fatalf("actor installed %d policy versions, want ≥ %d", got, wantInstalls)
	}
	if tr.UpdateCount() < wantUpdates {
		t.Fatalf("learner did %d updates, want ≥ %d", tr.UpdateCount(), wantUpdates)
	}
	// The learner never appended: every sampled row was actor-fed.
	if st, err := expserve.NewClient(expHTTP.URL, expserve.ClientOptions{}).ServiceStats(); err != nil {
		t.Fatal(err)
	} else if st.Rows < cfg.WarmupSize {
		t.Fatalf("experience service holds %d rows, want ≥ warmup %d", st.Rows, cfg.WarmupSize)
	}
}
