package expserve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"marlperf/internal/expstore"
)

// TestCompactDedupLogKeepsCursorsAndPartial: compaction rewrites the log to
// one cursor record per actor plus the partial record of a batch a kill tore
// mid-flush, and a server reopened on the compacted log still answers a
// redelivered applied batch as a duplicate and applies only the missing
// suffix of the torn one.
func TestCompactDedupLogKeepsCursorsAndPartial(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(4096)
	storePath := filepath.Join(dir, "store")
	dedupPath := filepath.Join(dir, "dedup.log")

	open := func() (*expstore.Store, *Server) {
		t.Helper()
		st, err := expstore.Open(storePath, spec, expstore.Options{SegmentRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{Provider: st, Spec: spec, DedupLogPath: dedupPath})
		if err != nil {
			t.Fatal(err)
		}
		return st, srv
	}
	var stride int
	batch := func(actor string, seq uint64) appendBatch {
		rows := make([]float64, 8*stride)
		for i := range rows {
			rows[i] = float64(seq)*1e4 + float64(i)
		}
		return appendBatch{ActorID: actor, BatchSeq: seq, Rows: rows, N: 8}
	}
	apply := func(srv *Server, b appendBatch) appendReply {
		t.Helper()
		r, err := srv.applyBatch(b)
		if err != nil {
			t.Fatalf("%s seq %d: %v", b.ActorID, b.BatchSeq, err)
		}
		return r
	}

	// Two actors apply whole batches: a's seqs 1 and 2, b's seq 1.
	st, srv := open()
	stride = st.Stats().Stride
	for _, b := range []appendBatch{batch("a", 1), batch("a", 2), batch("b", 1)} {
		apply(srv, b)
	}
	srv.Close()
	st.Close()

	// Forge a kill mid-flush of b's seq 2: its intent is durable, and only
	// 5 of its 8 rows are.
	logF, err := os.OpenFile(dedupPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := logF.WriteString(`{"actor":"b","seq":2,"base":24,"n":8}` + "\n"); err != nil {
		t.Fatal(err)
	}
	logF.Close()
	torn := batch("b", 2)
	st, err = expstore.Open(storePath, spec, expstore.Options{SegmentRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if err := st.AppendRow(torn.Rows[k*stride : (k+1)*stride]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, srv = open()
	srv.provMu.Lock()
	err = srv.compactDedupLog()
	srv.provMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	st.Close()

	data, err := os.ReadFile(dedupPath)
	if err != nil {
		t.Fatal(err)
	}
	if srv.dedupBytes != int64(len(data)) {
		t.Errorf("dedupBytes = %d after compaction, file holds %d", srv.dedupBytes, len(data))
	}
	var got []dedupRecord
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var r dedupRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("compacted line %q: %v", line, err)
		}
		got = append(got, r)
	}
	sort.Slice(got, func(i, j int) bool {
		if got[i].Actor != got[j].Actor {
			return got[i].Actor < got[j].Actor
		}
		return got[i].Seq < got[j].Seq
	})
	want := []dedupRecord{{Actor: "a", Seq: 2}, {Actor: "b", Seq: 1}, {Actor: "b", Seq: 2, PartialRows: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted log = %+v, want %+v", got, want)
	}
	if tmps, _ := filepath.Glob(dedupPath + ".tmp*"); len(tmps) > 0 {
		t.Errorf("compaction left temp files behind: %v", tmps)
	}

	// A server on the compacted log sweeps a compaction's leftover temp
	// file; applied batches are duplicates, the torn one lands only its
	// last 3 rows.
	stale := dedupPath + ".tmp-1"
	if err := os.WriteFile(stale, []byte("torn compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, srv = open()
	defer st.Close()
	defer srv.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale compaction temp survived reopening: %v", err)
	}
	for _, b := range []appendBatch{batch("a", 2), batch("b", 1)} {
		if r := apply(srv, b); !r.Dup {
			t.Errorf("redelivered %s seq %d: %+v, want dup", b.ActorID, b.BatchSeq, r)
		}
	}
	r := apply(srv, torn)
	if r.Dup || r.Total != 32 || srv.ingestRows.Value() != 3 {
		t.Fatalf("torn batch redelivery: %+v with %d rows ingested, want total 32 from 3 rows", r, srv.ingestRows.Value())
	}
	if srv.lastSeq["b"] != 2 || len(srv.partial) != 0 {
		t.Errorf("after redelivery: cursor %d, partial %v; want 2 and none", srv.lastSeq["b"], srv.partial)
	}
}
