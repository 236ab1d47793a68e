package main

import (
	"fmt"
	"math/rand"

	"marlperf/internal/expserve"
)

// fabric-ingest is the write path of the same fabric: full-CRC append
// frames through each server's single-writer ingest queue and dedup
// cursors into rings that are already wrapped, so every appended row also
// evicts one. A sample-path gain bought with a slower append path shows
// here as a regression.
//
// One op is 256 ShardedSink.Add calls of seeded rows and one Flush; the
// Flush returns when every shard has acknowledged, which means applied and
// sampleable.
const (
	ingestRowsPerOp = 256
	ingestShardCap  = 65536
	ingestWarmOps   = 1500
)

type fabricIngest struct {
	cfg       config
	fab       *fabric
	sink      *expserve.ShardedSink
	pool      *rowPool
	rowsPerOp int
	prefilled int // rows sent during set-up, warm-up included
	next      int // pool row the next Add sends

	tc tierCounters
}

func (g *fabricIngest) blockOps() int { return 400 }

func (g *fabricIngest) setup() error {
	g.rowsPerOp = ingestRowsPerOp
	shardCap, pool, warm := ingestShardCap, poolRows, ingestWarmOps
	if g.cfg.short {
		g.rowsPerOp, shardCap, pool, warm = 32, 1024, 256, 20
	}
	fab, err := newFabric(shardCap, g.cfg.rec)
	if err != nil {
		return err
	}
	g.fab = fab
	g.pool = newRowPool(fab.spec, pool, rand.New(rand.NewSource(g.cfg.seed)))
	g.sink, err = expserve.NewShardedSink(fab.client, "ingest", fab.spec)
	if err != nil {
		return err
	}
	g.sink.SetMaxBatchRows(4096)
	wrap := fab.rowsToWrap()
	if err := g.pool.fill(g.sink, 0, wrap, nil); err != nil {
		return err
	}
	g.next = wrap
	// From here on the op decides when to flush.
	g.sink.SetMaxBatchRows(1 << 30)
	for i := 0; i < warm; i++ {
		if err := g.op(-1 - i); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	g.prefilled = g.next
	for gi, r := range fab.rings {
		if r.Len() != shardCap {
			return fmt.Errorf("shard %d holds %d rows after prefill, want a full ring of %d", gi, r.Len(), shardCap)
		}
	}
	return nil
}

func (g *fabricIngest) startTimed() { g.tc.start(g.fab) }
func (g *fabricIngest) stopTimed()  { g.tc.stop(g.fab) }

func (g *fabricIngest) op(int) error {
	rec := g.cfg.rec
	id := rec.enter("expserve.append_pack")
	for r := 0; r < g.rowsPerOp; r++ {
		if err := g.pool.add(g.sink, g.next); err != nil {
			return err
		}
		g.next++
	}
	rec.leave(id)
	id = rec.enter("expserve.append_client")
	err := g.sink.Flush()
	rec.leave(id)
	return err
}

// check: every row sent was applied exactly once — the shards' lifetime
// totals add up to the rows sent, and no server acknowledged a duplicate
// batch.
func (g *fabricIngest) check(ops int) (int, error) {
	sent := uint64(g.prefilled + ops*g.rowsPerOp)
	got, dups := g.fab.totalRows(), g.fab.dupBatches()
	fmt.Fprintf(g.cfg.log, "fabric-ingest: %d rows sent, shards applied %d, %d duplicate batches\n", sent, got, dups)
	if got != sent {
		return ops, fmt.Errorf("shards applied %d rows, %d were sent", got, sent)
	}
	if dups != 0 {
		return int(dups), fmt.Errorf("%d append batches were acknowledged as duplicates", dups)
	}
	return 0, nil
}

func (g *fabricIngest) layers(sec *section, sp *spanData, m layerSet) {
	setRPCSpans(m, sp, "append")
	g.tc.report(m, sec)
}

func (g *fabricIngest) floors(m floorSet) {
	floorStore(m, g.fab, g.fab.rings[0], g.rowsPerOp, g.cfg.seed)
	floorLoopback(m, g.rowsPerOp/fabricGroups*g.fab.rings[0].Layout().Stride()*8)
}

func (g *fabricIngest) close() {
	if g.fab != nil {
		g.fab.close()
	}
}
