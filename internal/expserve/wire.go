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
// (float64s bit-exact). Append frames are expstore's MXAP batches with a
// CRC32-IEEE trailer over the whole frame — an actor spools them to disk
// and replays them, and the durable store keeps them verbatim, so they need
// at-rest integrity. Sample requests and
// replies are the shard frames in shardwire.go: the request is checksummed
// whole, the reply checksums its header — which names the request it
// answers — and delegates row-payload integrity to the transport. Small
// control messages (the append ack, /v1/stats) are JSON.
package expserve

import (
	"errors"

	"marlperf/internal/expstore"
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

// maxWireRows bounds the row count any single shard frame may claim, so a
// hostile or corrupt header cannot demand an absurd allocation.
const maxWireRows = 1 << 20

// Request body caps. Handlers refuse a longer body with 413.
const (
	maxAppendBody      = 64 << 20
	maxShardSampleBody = 1 << 20
)

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
// Instance is drawn once per server: two fabric members that report the
// same one are one replayd named twice.
type statsReply struct {
	Instance string            `json:"instance"`
	Spec     specWire          `json:"spec"`
	Store    expstore.Stats    `json:"store"`
	Actors   map[string]uint64 `json:"actors,omitempty"`
}
