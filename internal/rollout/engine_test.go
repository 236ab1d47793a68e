package rollout

import (
	"math/rand"
	"strings"
	"testing"

	"marlperf/internal/mpe"
	"marlperf/internal/nn"
	"marlperf/internal/policysync"
	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

// recordingSink captures every transition by deep copy, so trajectories can
// be compared bit-for-bit after the fact.
type recordingSink struct {
	rows []recordedRow
}

type recordedRow struct {
	obs, act, nextObs [][]float64
	rew, done         []float64
}

func copy2d(src [][]float64) [][]float64 {
	out := make([][]float64, len(src))
	for i, s := range src {
		out[i] = append([]float64(nil), s...)
	}
	return out
}

func (r *recordingSink) Add(obs, act [][]float64, rew []float64, nextObs [][]float64, done []float64) error {
	r.rows = append(r.rows, recordedRow{
		obs:     copy2d(obs),
		act:     copy2d(act),
		rew:     append([]float64(nil), rew...),
		nextObs: copy2d(nextObs),
		done:    append([]float64(nil), done...),
	})
	return nil
}

func (r *recordingSink) Flush() error { return nil }

func testPolicy(t testing.TB, seed int64, env mpe.Env) []*nn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nets := make([]*nn.Network, env.NumAgents())
	for i, d := range env.ObsDims() {
		nets[i] = nn.NewMLP(rng, d, 32, 32, env.NumActions())
	}
	return nets
}

func sameRows(t *testing.T, label string, a, b recordedRow) {
	t.Helper()
	eq2d := func(x, y [][]float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if len(x[i]) != len(y[i]) {
				return false
			}
			for j := range x[i] {
				if x[i][j] != y[i][j] {
					return false
				}
			}
		}
		return true
	}
	eq1d := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !eq2d(a.obs, b.obs) || !eq2d(a.act, b.act) || !eq2d(a.nextObs, b.nextObs) ||
		!eq1d(a.rew, b.rew) || !eq1d(a.done, b.done) {
		t.Fatalf("%s: transition differs", label)
	}
}

// TestVectorizedMatchesSingleEnv pins the determinism contract: a B-env
// vectorized engine produces, env by env, trajectories bit-identical to B
// independent single-env engines running the same global env indices under
// the same policy and seed.
func TestVectorizedMatchesSingleEnv(t *testing.T) {
	const (
		envs  = 8
		steps = 60
		seed  = 42
	)
	newEnv := func() mpe.Env { return mpe.NewPredatorPrey(3) }
	policy := testPolicy(t, 7, newEnv())

	vecSink := &recordingSink{}
	vec, err := NewEngine(Config{NewEnv: newEnv, Envs: envs, Seed: seed, Sink: vecSink})
	if err != nil {
		t.Fatal(err)
	}
	if err := vec.Install(1, policy); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if _, err := vec.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := int(vec.TotalSteps()); got != envs*steps {
		t.Fatalf("vec engine took %d env-steps, want %d", got, envs*steps)
	}
	if len(vecSink.rows) != envs*steps {
		t.Fatalf("vec sink has %d rows, want %d", len(vecSink.rows), envs*steps)
	}

	for e := 0; e < envs; e++ {
		soloSink := &recordingSink{}
		solo, err := NewEngine(Config{NewEnv: newEnv, Envs: 1, FirstEnvIndex: e, Seed: seed, Sink: soloSink})
		if err != nil {
			t.Fatal(err)
		}
		if err := solo.Install(1, policy); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			if _, err := solo.Step(); err != nil {
				t.Fatal(err)
			}
		}
		// Vec sink interleaves env-major within each step: step s emits
		// envs 0..B-1 in order, so env e's row for step s is s·B+e.
		for s := 0; s < steps; s++ {
			sameRows(t, "env "+string(rune('0'+e))+" step", vecSink.rows[s*envs+e], soloSink.rows[s])
		}
	}
}

// TestPerEnvForwardMatchesBatched checks the two acting modes are
// interchangeable: forwards consume no randomness, so the bench baseline
// (per-env 1-row forwards) must reproduce the batched trajectories exactly.
func TestPerEnvForwardMatchesBatched(t *testing.T) {
	newEnv := func() mpe.Env { return mpe.NewCooperativeNavigation(3) }
	policy := testPolicy(t, 9, newEnv())

	run := func(perEnv bool) *recordingSink {
		sink := &recordingSink{}
		eng, err := NewEngine(Config{NewEnv: newEnv, Envs: 4, Seed: 5, PerEnvForward: perEnv, Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Install(1, policy); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 30; s++ {
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return sink
	}
	batched, perEnv := run(false), run(true)
	if len(batched.rows) != len(perEnv.rows) {
		t.Fatalf("row counts differ: %d vs %d", len(batched.rows), len(perEnv.rows))
	}
	for i := range batched.rows {
		sameRows(t, "row", batched.rows[i], perEnv.rows[i])
	}
}

// TestStalenessBound proves the sync-every contract: an actor that checks
// for new policy versions every E steps acts on a policy at most E versions
// behind the newest published one, even when the learner publishes a new
// version on every single step.
func TestStalenessBound(t *testing.T) {
	const (
		syncEvery = 4
		steps     = 40
	)
	newEnv := func() mpe.Env { return mpe.NewPredatorPrey(3) }
	policy := testPolicy(t, 11, newEnv())

	store := policysync.NewStore(nil)
	eng, err := NewEngine(Config{NewEnv: newEnv, Envs: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// publish is the learner's side, pull the actor's: the newest frame,
	// decoded and installed unless the engine already acts on it.
	publish := func(updates uint64) {
		frame, err := policysync.EncodeSnapshot(nil, updates, policy)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.PublishCtx(frame, trace.Context{}); err != nil {
			t.Fatal(err)
		}
	}
	pull := func() {
		version, _, frame := store.Latest()
		if version <= eng.PolicyVersion() {
			return
		}
		snap, err := policysync.DecodeSnapshot(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Install(version, snap.Agents); err != nil {
			t.Fatal(err)
		}
	}
	publish(0)
	pull()

	for s := 1; s <= steps; s++ {
		// The learner races ahead: one new version per actor step.
		publish(uint64(s))
		if s%syncEvery == 0 {
			pull()
		}
		latest, _, _ := store.Latest()
		eng.NoteKnownVersion(latest)
		if lag := latest - eng.PolicyVersion(); lag > syncEvery {
			t.Fatalf("step %d: acting policy %d versions stale, bound is %d", s, lag, syncEvery)
		}
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// The act-lag histogram counts how far behind the newest known version a
// step acts, whether or not that version is installed yet: an engine that
// knows v+2 while acting on v observes a lag of 2.
func TestActLagCountsKnownVersions(t *testing.T) {
	newEnv := func() mpe.Env { return mpe.NewPredatorPrey(3) }
	reg := telemetry.NewRegistry()
	eng, err := NewEngine(Config{NewEnv: newEnv, Seed: 3, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Install(5, testPolicy(t, 11, newEnv())); err != nil {
		t.Fatal(err)
	}
	eng.NoteKnownVersion(7)
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if h := reg.Histogram("marl_policy_act_lag_versions", nil); h.Count() != 1 || h.Sum() != 2 {
		t.Fatalf("act lag: %d observations summing to %v, want one of 2", h.Count(), h.Sum())
	}
}

func TestStepBeforeInstallFails(t *testing.T) {
	eng, err := NewEngine(Config{NewEnv: func() mpe.Env { return mpe.NewPredatorPrey(3) }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(); err == nil {
		t.Fatal("Step without a policy succeeded")
	}
}

func TestInstallRejectsMismatchedPolicy(t *testing.T) {
	eng, err := NewEngine(Config{NewEnv: func() mpe.Env { return mpe.NewPredatorPrey(3) }})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong obs width for predator-prey.
	rng := rand.New(rand.NewSource(1))
	bad := []*nn.Network{
		nn.NewMLP(rng, 3, 8, 5), nn.NewMLP(rng, 3, 8, 5), nn.NewMLP(rng, 3, 8, 5),
	}
	if err := eng.Install(1, bad); err == nil || !strings.Contains(err.Error(), "-dim obs") {
		t.Fatalf("policy of the wrong obs width: %v", err)
	}
	// Right obs widths, one action too few.
	env := mpe.NewPredatorPrey(3)
	narrow := make([]*nn.Network, env.NumAgents())
	for i, d := range env.ObsDims() {
		narrow[i] = nn.NewMLP(rng, d, 8, env.NumActions()-1)
	}
	if err := eng.Install(1, narrow); err == nil || !strings.Contains(err.Error(), "actions") {
		t.Fatalf("policy of the wrong action width: %v", err)
	}
	// Wrong agent count.
	if err := eng.Install(1, bad[:2]); err == nil {
		t.Fatal("short policy installed")
	}
}

// TestEpisodeBookkeeping checks episode caps and resets advance per env.
func TestEpisodeBookkeeping(t *testing.T) {
	newEnv := func() mpe.Env { return mpe.NewCooperativeNavigation(2) }
	eng, err := NewEngine(Config{NewEnv: newEnv, Envs: 3, Seed: 1, MaxEpisodeLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Install(1, testPolicy(t, 2, newEnv())); err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := 0; s < 10; s++ {
		n, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	// 10 steps at cap 5 → every env completes exactly 2 episodes.
	if total != 6 {
		t.Fatalf("completed %d episodes, want 6", total)
	}
}
