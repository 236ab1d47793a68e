// Package expserve is the networked half of the experience service: a
// stdlib-only HTTP transport that lets actor processes stream transitions
// into a central segment-packed store and lets a learner sample mini-batches
// out of it. The learner selects and the shards gather: the seeded plan runs
// once, on the learner, over a frozen view of the fabric — index selection
// being a pure function of (plan, length, seed) is what makes remote-fed
// training bit-reproducible against local training — and each shard is
// sent only the local rows it holds, which it gathers next to the data, so
// the paper's locality-aware selection still streams contiguous rows.
//
// Wire formats: bulk row payloads travel as little-endian binary frames
// (float64s bit-exact, same encoding as the segment files). Append frames
// carry a CRC32-IEEE trailer over the whole frame — they get spooled to
// disk and replayed, so they need at-rest integrity. Sample requests and
// replies are the shard frames in shardwire.go: the request is checksummed
// whole, the reply checksums its header — which names the request it
// answers — and delegates row-payload integrity to the transport. Small
// control messages (the append ack, /v1/stats) are JSON.
package expserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"marlperf/internal/expstore"
	"marlperf/internal/f64le"
	"marlperf/internal/frame"
	"marlperf/internal/replay"
)

// Endpoint paths served by Server and used by Client.
const (
	PathAppend = "/v1/append"
	PathStats  = "/v1/stats"
)

// PathSample is unrouted: the server registers no handler for it and
// answers 404. It survives only because the frozen bench/ module names it
// beside PathShardSample as two keys of one map literal; delete it when
// bench/ next opens.
const PathSample = "/v1/sample"

const (
	appendMagic = "MXAP"
	wireVersion = 1

	// maxWireRows bounds the row count any single frame may claim, so a
	// hostile or corrupt header cannot demand an absurd allocation.
	maxWireRows = 1 << 20
	// Request body caps. Handlers refuse a longer body with 413.
	maxAppendBody      = 64 << 20
	maxShardSampleBody = 1 << 20

	// appendPrefix is the append frame's magic, version and actorLen.
	appendPrefix = 12
	// appendFrameHdr is the append frame's fixed bytes ahead of the row
	// payload, the actor ID aside: the prefix, then seq, rows, stride.
	appendFrameHdr = appendPrefix + 16
)

// payloadPad is the bytes ahead of an append frame in 8-aligned memory that 8-align its rows.
func payloadPad(actorLen int) int { return (8 - (appendFrameHdr+actorLen)%8) % 8 }

// appendBatch is one actor→server experience batch. ActorID plus the
// per-actor monotonic BatchSeq make retries idempotent: the server remembers
// the newest applied sequence per actor and acknowledges duplicates without
// re-appending them.
type appendBatch struct {
	ActorID  string
	BatchSeq uint64
	Rows     []float64 // n·stride packed rows
	N        int
}

// encodeAppend frames a batch: magic | u32 version | u32 actorLen | actor |
// u64 batchSeq | u32 rowCount | u32 stride | rows | u32 CRC. dst grows at
// most once and the rows go in as one bulk copy. RemoteSink frames in place
// instead; this copy is its big-endian path and its tests' reference.
func encodeAppend(dst []byte, b appendBatch, stride int) []byte {
	start := len(dst)
	dst = slices.Grow(dst, appendFrameHdr+len(b.ActorID)+8*b.N*stride+4)
	dst = appendBatchHeader(dst, b.ActorID, b.BatchSeq, b.N, stride)
	dst = f64le.Append(dst, b.Rows[:b.N*stride])
	return frame.Seal(dst, start)
}

// appendBatchHeader appends an append frame's header, all that precedes its rows.
func appendBatchHeader(dst []byte, actorID string, seq uint64, n, stride int) []byte {
	dst = frame.AppendHeader(dst, appendMagic, wireVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(actorID)))
	dst = append(dst, actorID...)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	return binary.LittleEndian.AppendUint32(dst, uint32(stride))
}

// decodeAppend parses and verifies an append frame against the expected
// layout stride. The returned Rows alias data when its row payload can be
// viewed as floats in place and *scratch when it cannot — either way they
// are valid only as long as the buffer they alias.
func decodeAppend(data []byte, stride int, scratch *[]float64) (appendBatch, error) {
	d := frame.NewDecoder(data)
	d.Header(appendMagic, wireVersion)
	actorLen := int(d.U32())
	if d.Err() == nil && (actorLen < 1 || actorLen > 256 || d.Len() < actorLen+16+4) {
		d.Fail("implausible append frame (actor %d bytes, frame %d)", actorLen, len(data))
	}
	actor := d.Bytes(actorLen)
	seq := d.U64()
	n := int(d.U32())
	if got := int(d.U32()); d.Err() == nil && got != stride {
		d.Fail("append stride %d, store expects %d", got, stride)
	}
	if d.Err() == nil && (n < 0 || n > maxWireRows || d.Len() != 8*n*stride+4) {
		d.Fail("append frame claims %d rows but carries %d bytes", n, len(data))
	}
	d.Unseal()
	rows := d.Bytes(8 * n * stride)
	if err := d.Err(); err != nil {
		return appendBatch{}, fmt.Errorf("expserve: append frame: %w", err)
	}
	return appendBatch{ActorID: string(actor), BatchSeq: seq, Rows: f64le.View(rows, scratch), N: n}, nil
}

// appendReply is the server's JSON acknowledgement of an append.
type appendReply struct {
	Total uint64 `json:"total"` // rows ever ingested after this batch
	Rows  int    `json:"rows"`  // sampleable rows after this batch
	Dup   bool   `json:"dup"`   // batch was a replay of an applied sequence
}

// ErrShortFrame reports a sample reply shorter than the layout its header
// (or the request it answers) declares — a truncated read, a torn proxy
// body, or a hostile peer. It is detected from the frame length alone,
// before any row decoding touches the payload.
var ErrShortFrame = errors.New("expserve: sample reply frame truncated")

// specWire is the JSON shape of a replay.Spec on the stats endpoint.
type specWire struct {
	NumAgents int   `json:"num_agents"`
	ObsDims   []int `json:"obs_dims"`
	ActDim    int   `json:"act_dim"`
	Capacity  int   `json:"capacity"`
}

func specToWire(s replay.Spec) specWire {
	return specWire{NumAgents: s.NumAgents, ObsDims: s.ObsDims, ActDim: s.ActDim, Capacity: s.Capacity}
}

func (w specWire) spec() replay.Spec {
	return replay.Spec{NumAgents: w.NumAgents, ObsDims: w.ObsDims, ActDim: w.ActDim, Capacity: w.Capacity}
}

// statsReply is the stats endpoint's JSON document. Actors maps each
// actor ID to the newest applied append sequence (the idempotency cursor).
type statsReply struct {
	Spec   specWire          `json:"spec"`
	Store  expstore.Stats    `json:"store"`
	Actors map[string]uint64 `json:"actors,omitempty"`
}
