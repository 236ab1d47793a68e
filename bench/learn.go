package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"marlperf/internal/core"
	"marlperf/internal/profiler"
)

// learn-local is the paper's Table I base cell: one process, predator-prey
// with three agents, MADDPG, batch 1024, uniform sampling from a local
// replay buffer far larger than the last-level cache. tensor and nn do
// nearly all the work, replay about a percent, and the network tiers none —
// kernel and update-engine changes show here, transport changes must not.
//
// One op is one UpdateAllTrainers().
const (
	learnBatch   = 1024
	learnRows    = 65536 // ≈61 MB of transitions, far beyond the per-core L2
	learnWarmOps = 3
)

type learnLocal struct {
	cfg config
	tr  *core.Trainer

	phases phaseTimes
}

var updatePhases = [3]profiler.Phase{profiler.PhaseSampling, profiler.PhaseTargetQ, profiler.PhaseQPLoss}

func (l *learnLocal) blockOps() int { return 4 }

func (l *learnLocal) setup() error {
	c := core.DefaultConfig(core.MADDPG)
	rows := learnRows
	c.BatchSize = learnBatch
	if l.cfg.short {
		c.BatchSize, rows = 64, 2048
	}
	// Never DefaultConfig's million rows: the buffer is sized to what the
	// workload fills, so peak memory is the same on every run.
	c.BufferCapacity = rows
	c.Seed = l.cfg.seed
	tr, err := core.NewTrainer(c, newEnv())
	if err != nil {
		return err
	}
	l.tr = tr
	tr.Warmup(rows)
	for i := 0; i < learnWarmOps; i++ {
		tr.UpdateAllTrainers()
	}
	return nil
}

func (l *learnLocal) startTimed() { l.phases.start(l.tr.Profile()) }
func (l *learnLocal) stopTimed()  { l.phases.stop(l.tr.Profile()) }

func (l *learnLocal) op(int) error {
	id := l.cfg.rec.enter("core.update")
	l.tr.UpdateAllTrainers()
	l.cfg.rec.leave(id)
	return nil
}

func (l *learnLocal) check(ops int) (int, error) {
	if err := l.tr.Healthy(); err != nil {
		return ops, err
	}
	if td := l.tr.LastTDMean(); math.IsNaN(td) || math.IsInf(td, 0) {
		return ops, fmt.Errorf("last TD mean is %v", td)
	}
	if got, want := l.tr.UpdateCount(), learnWarmOps+ops; got != want {
		return ops, fmt.Errorf("trainer ran %d updates, want %d", got, want)
	}
	var ckpt bytes.Buffer
	if err := l.tr.SaveCheckpoint(&ckpt); err != nil {
		return ops, err
	}
	fmt.Fprintf(l.cfg.log, "learn-local: %d updates, last TD mean %.6g, state digest %08x\n",
		l.tr.UpdateCount(), l.tr.LastTDMean(), crc32.ChecksumIEEE(ckpt.Bytes()))
	return 0, nil
}

func (l *learnLocal) layers(_ *section, sp *spanData, m layerSet) {
	m.set("core.update_ms", sp.meanMs("core.update"))
	m.set("core.update_self_ms", sp.selfMeanMs("core.update"))
	l.phases.report(m)
}

// phaseTimes is the trainer's own profiler over the timed section: how the
// update stage's time divides over the paper's three phases.
type phaseTimes [3]time.Duration

func (p *phaseTimes) start(prof *profiler.Profile) {
	for i, ph := range updatePhases {
		p[i] = prof.Duration(ph)
	}
}

func (p *phaseTimes) stop(prof *profiler.Profile) {
	for i, ph := range updatePhases {
		p[i] = prof.Duration(ph) - p[i]
	}
}

func (p *phaseTimes) report(m layerSet) {
	total := float64(p[0] + p[1] + p[2])
	if total == 0 {
		return
	}
	m.set("core.phase_sampling_share", float64(p[0])/total)
	m.set("core.phase_targetq_share", float64(p[1])/total)
	m.set("core.phase_loss_share", float64(p[2])/total)
}

func (l *learnLocal) floors(m floorSet) {
	floorKernels(m, l.tr.JointDim(), l.tr.Config().BatchSize, l.cfg.seed)
	floorCheckpoint(m, l.tr)
	floorReplay(m, l.tr, l.cfg.seed)
}

func (l *learnLocal) close() {
	if l.tr != nil {
		l.tr.Close()
	}
}
