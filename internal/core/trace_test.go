package core

// Acceptance tests for the distributed tracer's core guarantees on the
// learner: the disabled path is free (no additional allocations on the
// update hot path), and phase spans equal the profile exactly. That span
// emission never changes training bytes is TestDeterminismMatrix's trace
// axis.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"marlperf/internal/expstore"
	"marlperf/internal/mpe"
	"marlperf/internal/nn"
	"marlperf/internal/profiler"
	"marlperf/internal/replay"
	"marlperf/internal/rollout"
	"marlperf/internal/trace"
)

// TestDisabledTracerAddsNoAllocs: attaching a tracer that is present but
// disabled must not add a single allocation to the update/sample hot path
// relative to no tracer at all — the guard is one atomic load per probe.
func TestDisabledTracerAddsNoAllocs(t *testing.T) {
	const episodes = 4
	mallocs := func(withTracer bool) uint64 {
		cfg := smallConfig(MADDPG)
		cfg.UpdateWorkers = 1
		tr, err := NewTrainer(cfg, mpe.NewCooperativeNavigation(3))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if withTracer {
			tracer := trace.New("learner", 1024)
			// Deliberately never enabled.
			tr.SetTracer(tracer)
		}
		// Warm up pools and lazily-built state outside the measured window.
		tr.RunEpisodes(1, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr.RunEpisodes(episodes, nil)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}

	plain := mallocs(false)
	withDisabled := mallocs(true)
	// Both runs are deterministic and identical byte-for-byte; allow a small
	// absolute slack for runtime-internal allocations (timer wheels, GC
	// bookkeeping) that are not attributable to the tracer. Any real
	// per-span cost would show up as thousands of allocations here.
	const slack = 200
	if withDisabled > plain+slack {
		t.Fatalf("disabled tracer added allocations: %d with vs %d without (slack %d)",
			withDisabled, plain, slack)
	}
}

// TestPhaseSpansEqualProfile: a phase's profile entry and its span come from
// the same two clock reads. So when every update or step is traced and no
// span is dropped, each phase's span durations sum to its Profile.Duration
// to the nanosecond. That holds for the trainer's update phases at one and
// two workers, drawing from the local buffer and from a local
// expstore.Source, and for a rollout engine's interaction phases at one and
// eight envs. Every phase span is named by exactly one profiler.Phase.
func TestPhaseSpansEqualProfile(t *testing.T) {
	phaseOf := make(map[string]profiler.Phase)
	for _, p := range profiler.Phases() {
		if q, dup := phaseOf[p.String()]; dup {
			t.Fatalf("phases %d and %d share the name %q", q, p, p.String())
		}
		phaseOf[p.String()] = p
	}
	check := func(label string, tracer *trace.Tracer, prof *profiler.Profile, root string, phases ...profiler.Phase) {
		t.Helper()
		if n := tracer.Dropped(); n != 0 {
			t.Fatalf("%s: the ring dropped %d spans", label, n)
		}
		listed := make(map[profiler.Phase]bool)
		for _, p := range phases {
			listed[p] = true
		}
		sums := make(map[profiler.Phase]int64)
		roots := 0
		for _, rec := range tracer.Snapshot() {
			if rec.ParentID == 0 {
				if rec.Name != root {
					t.Fatalf("%s: root span %q, want %q", label, rec.Name, root)
				}
				roots++
				continue
			}
			p, ok := phaseOf[rec.Name]
			if !ok || !listed[p] {
				t.Fatalf("%s: span %q is not one of the phases %v", label, rec.Name, phases)
			}
			sums[p] += rec.Dur
		}
		if roots == 0 {
			t.Fatalf("%s: no %q root recorded; the check is vacuous", label, root)
		}
		for _, p := range phases {
			if prof.Count(p) == 0 {
				t.Fatalf("%s: phase %v never ran", label, p)
			}
			if got, want := sums[p], int64(prof.Duration(p)); got != want {
				t.Errorf("%s: %v spans sum to %d ns, the profile holds %d ns", label, p, got, want)
			}
		}
	}

	update := []profiler.Phase{profiler.PhaseSampling, profiler.PhaseTargetQ, profiler.PhaseQPLoss}
	for _, workers := range []int{1, 2} {
		for _, source := range []bool{false, true} {
			cfg := expConfig(SamplerUniform)
			cfg.UpdateWorkers = workers
			env := mpe.NewCooperativeNavigation(2)
			tr, err := NewTrainer(cfg, env)
			if err != nil {
				t.Fatal(err)
			}
			if source {
				src, err := expstore.NewSource(expstore.NewRing(expSpec(cfg, env)), replay.SamplePlan{Strategy: replay.PlanUniform})
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.SetExperienceService(src, src); err != nil {
					t.Fatal(err)
				}
			}
			tracer := trace.New("learner", 1<<16)
			tracer.SetSampleEvery(1)
			tracer.SetEnabled(true)
			tr.SetTracer(tracer)
			for completed := 0; completed < 4; {
				done, err := tr.StepE()
				if err != nil {
					t.Fatal(err)
				}
				if done {
					completed++
				}
			}
			tr.Close()
			check(fmt.Sprintf("trainer workers=%d source=%v", workers, source), tracer, tr.Profile(), "update", update...)
		}
	}

	interaction := []profiler.Phase{profiler.PhaseActionSelection, profiler.PhaseEnvStep, profiler.PhaseReplayAdd}
	newEnv := func() mpe.Env { return mpe.NewCooperativeNavigation(3) }
	for _, envs := range []int{1, 8} {
		tracer := trace.New("actor", 1<<16)
		tracer.SetSampleEvery(1)
		tracer.SetEnabled(true)
		env := newEnv()
		sink, err := expstore.NewSource(expstore.NewRing(expSpec(Config{BufferCapacity: 1024}, env)), replay.SamplePlan{Strategy: replay.PlanUniform})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := rollout.NewEngine(rollout.Config{NewEnv: newEnv, Envs: envs, Seed: 5, Sink: sink, Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		policy := make([]*nn.Network, env.NumAgents())
		for i, d := range env.ObsDims() {
			policy[i] = nn.NewMLP(rng, d, 16, env.NumActions())
		}
		if err := eng.Install(1, policy); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 40; s++ {
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("engine envs=%d", envs), tracer, eng.Profile(), "step", interaction...)
	}
}
