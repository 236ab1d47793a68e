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
	"hash/crc32"
	"slices"

	"marlperf/internal/expstore"
	"marlperf/internal/f64le"
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
	start, hdr := len(dst), appendFrameHdr+len(b.ActorID)
	dst = slices.Grow(dst, hdr+8*b.N*stride+4)[:start+hdr]
	putAppendHeader(dst[start:], b.ActorID, b.BatchSeq, b.N, stride)
	dst = f64le.Append(dst, b.Rows[:b.N*stride])
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// putAppendHeader writes an append frame's header, all ahead of its rows, into dst.
func putAppendHeader(dst []byte, actorID string, seq uint64, n, stride int) {
	copy(dst, appendMagic)
	binary.LittleEndian.PutUint32(dst[4:], wireVersion)
	binary.LittleEndian.PutUint32(dst[8:], uint32(len(actorID)))
	off := appendPrefix + copy(dst[appendPrefix:], actorID)
	binary.LittleEndian.PutUint64(dst[off:], seq)
	binary.LittleEndian.PutUint32(dst[off+8:], uint32(n))
	binary.LittleEndian.PutUint32(dst[off+12:], uint32(stride))
}

// decodeAppend parses and verifies an append frame against the expected
// layout stride. The returned Rows alias data when its row payload can be
// viewed as floats in place and *scratch when it cannot — either way they
// are valid only as long as the buffer they alias.
func decodeAppend(data []byte, stride int, scratch *[]float64) (appendBatch, error) {
	var b appendBatch
	if len(data) < appendPrefix {
		return b, fmt.Errorf("expserve: append frame too short (%d bytes)", len(data))
	}
	if string(data[:4]) != appendMagic {
		return b, fmt.Errorf("expserve: bad append magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != wireVersion {
		return b, fmt.Errorf("expserve: append frame version %d, want %d", v, wireVersion)
	}
	actorLen := int(binary.LittleEndian.Uint32(data[8:]))
	if actorLen < 1 || actorLen > 256 || len(data) < appendFrameHdr+actorLen+4 {
		return b, fmt.Errorf("expserve: implausible append frame (actor %d bytes, frame %d)", actorLen, len(data))
	}
	off := appendPrefix + actorLen
	b.ActorID = string(data[appendPrefix:off])
	b.BatchSeq = binary.LittleEndian.Uint64(data[off:])
	n := int(binary.LittleEndian.Uint32(data[off+8:]))
	if got := int(binary.LittleEndian.Uint32(data[off+12:])); got != stride {
		return b, fmt.Errorf("expserve: append stride %d, store expects %d", got, stride)
	}
	off += 16
	if n < 0 || n > maxWireRows || len(data) != off+8*n*stride+4 {
		return b, fmt.Errorf("expserve: append frame claims %d rows but carries %d bytes", n, len(data))
	}
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(data[:len(data)-4]) != want {
		return b, fmt.Errorf("expserve: append frame checksum mismatch")
	}
	b.N = n
	b.Rows = f64le.View(data[off:len(data)-4], scratch)
	return b, nil
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
