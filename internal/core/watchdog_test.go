package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"marlperf/internal/profiler"
	"marlperf/internal/replay"
	"marlperf/internal/tensor"
)

func TestHealthyDetectsPoisonedParams(t *testing.T) {
	tr := trainedTrainer(t, MADDPG)
	if err := tr.Healthy(); err != nil {
		t.Fatalf("trained trainer unhealthy: %v", err)
	}
	tr.agents[1].critic1.Params()[0].Data[3] = math.NaN()
	err := tr.Healthy()
	if err == nil || !strings.Contains(err.Error(), "agent 1 critic1") {
		t.Fatalf("Healthy = %v, want agent 1 critic1 complaint", err)
	}
}

// Healthy scans parameters, not products: an infinite weight that only zero
// multipliers meet — tensor's products leave every such term out, so the
// forward pass stays finite — is reported all the same.
func TestHealthyReportsParamTheProductsSkip(t *testing.T) {
	tr := trainedTrainer(t, MADDPG)
	actor := tr.agents[0].actor
	w := actor.Params()[0]
	for j := range w.Row(0) {
		w.Set(0, j, math.Inf(1))
	}
	if out := actor.Forward(tensor.New(1, w.Rows)); !finiteSlice(out.Data) {
		t.Fatalf("an all-zero observation met the infinite weights: %v", out.Data)
	}
	if err := tr.Healthy(); err == nil || !strings.Contains(err.Error(), "agent 0 actor") {
		t.Fatalf("Healthy = %v, want agent 0 actor complaint", err)
	}
}

func TestHealthyDetectsNonFiniteTD(t *testing.T) {
	tr := trainedTrainer(t, MADDPG)
	tr.lastTDMean = math.Inf(1)
	if err := tr.Healthy(); err == nil || !strings.Contains(err.Error(), "TD") {
		t.Fatalf("Healthy = %v, want TD complaint", err)
	}
}

func TestWatchdogRollsBackOnNaN(t *testing.T) {
	tr := trainedTrainer(t, MADDPG)
	wd, err := NewWatchdog(tr)
	if err != nil {
		t.Fatal(err)
	}
	goodParam := tr.agents[0].actor.Params()[0].Clone()

	// A few healthy observations refresh the snapshot and report nothing.
	for i := 0; i < 3; i++ {
		tr.Warmup(25)
		if ev, err := wd.Observe(); err != nil || ev != nil {
			t.Fatalf("healthy Observe: ev=%v err=%v", ev, err)
		}
	}
	goodSteps := tr.TotalSteps()
	goodParam = tr.agents[0].actor.Params()[0].Clone()

	// Inject divergence: poison an actor parameter, as an exploded P-loss
	// gradient would.
	tr.agents[0].actor.Params()[0].Data[0] = math.NaN()
	tr.Warmup(25)
	ev, err := wd.Observe()
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.Reason == nil {
		t.Fatal("divergence not recovered")
	}
	if wd.rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1", wd.rollbacks)
	}
	if !tensor.ApproxEqual(tr.agents[0].actor.Params()[0], goodParam, 0) {
		t.Fatal("rollback did not restore the last good parameters")
	}
	if tr.TotalSteps() != goodSteps {
		t.Fatalf("rollback restored %d steps, want %d", tr.TotalSteps(), goodSteps)
	}
	if err := tr.Healthy(); err != nil {
		t.Fatalf("trainer unhealthy after rollback: %v", err)
	}
	if got := tr.Profile().EventCount(profiler.EventWatchdogRollback); got != 1 {
		t.Fatalf("profiler rollback count = %d, want 1", got)
	}

	// The run continues to completion with finite rewards.
	finite := true
	tr.RunEpisodes(4, func(ep int, reward float64) {
		if math.IsNaN(reward) || math.IsInf(reward, 0) {
			finite = false
		}
	})
	if !finite {
		t.Fatal("post-recovery episodes produced non-finite rewards")
	}
	if _, err := wd.Observe(); err != nil {
		t.Fatal(err)
	}
}

func TestInteractSanitizesDivergedActions(t *testing.T) {
	tr := trainedTrainer(t, MADDPG)
	// Poison agent 0's actor so its logits (and Gumbel-softmax probs) go NaN.
	for _, p := range tr.agents[0].actor.Params() {
		for i := range p.Data {
			p.Data[i] = math.NaN()
		}
	}
	before := tr.store.Len()
	tr.Warmup(20)
	if tr.store.Len() <= before {
		t.Fatal("warmup added no transitions")
	}
	n := tr.store.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	dst := make([]*replay.AgentBatch, tr.n)
	for a := 0; a < tr.n; a++ {
		dst[a] = replay.NewAgentBatch(n, tr.obsDims[a], tr.actDim)
	}
	tr.store.GatherAll(idx, dst)
	for a, b := range dst {
		if !finiteSlice(b.Act.Data) {
			t.Fatalf("agent %d: non-finite action row reached the replay buffer", a)
		}
		if !finiteSlice(b.Obs.Data) {
			t.Fatalf("agent %d: non-finite obs row reached the replay buffer", a)
		}
	}
	if got := tr.Profile().EventCount(profiler.EventActionSanitized); got == 0 {
		t.Fatal("no action-sanitized events recorded")
	}
}

func TestWatchdogExhaustsRollbackBudget(t *testing.T) {
	tr := trainedTrainer(t, MADDPG)
	wd, err := NewWatchdog(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxRollbacks; i++ {
		tr.agents[0].actor.Params()[0].Data[0] = math.NaN()
		if _, err := wd.Observe(); err != nil {
			t.Fatalf("rollback %d: %v", i+1, err)
		}
	}
	tr.agents[0].actor.Params()[0].Data[0] = math.NaN()
	if _, err := wd.Observe(); err == nil || wd.rollbacks != 8 {
		t.Fatalf("divergence %d past the budget of 8: %v", wd.rollbacks+1, err)
	}
}

// TestWatchdogCaptureReusesItsCopy: a healthy Observe refreshes the rollback
// copy in the storage the previous capture left, so after the first one it
// allocates far less than one checkpoint. Encoding into a fresh buffer at
// every episode cost a whole checkpoint each time (≈ 4.6 MB at six
// predator-prey agents, growing with the square of the agent count).
func TestWatchdogCaptureReusesItsCopy(t *testing.T) {
	tr := trainedTrainer(t, MADDPG)
	wd, err := NewWatchdog(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wd.Observe(); err != nil {
		t.Fatal(err)
	}
	const n = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := wd.Observe(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perObserve := (after.TotalAlloc - before.TotalAlloc) / n
	if limit := uint64(len(wd.good)) / 10; perObserve > limit {
		t.Fatalf("a healthy Observe allocated %d bytes, want at most %d (a tenth of the %d-byte checkpoint)", perObserve, limit, len(wd.good))
	}
}

func TestWatchdogRefusesUnhealthyStart(t *testing.T) {
	tr := trainedTrainer(t, MADDPG)
	tr.agents[0].actor.Params()[0].Data[0] = math.NaN()
	if _, err := NewWatchdog(tr); err == nil {
		t.Fatal("watchdog accepted an already-poisoned trainer")
	}
}
