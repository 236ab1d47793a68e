// Package policysync closes the learner→actor half of the distributed MARL
// loop: a versioned store of per-agent actor (policy) network snapshots
// behind a stdlib HTTP service. The learner publishes its actor weights at a
// configurable cadence (every k update stages); any number of actors
// long-poll or ETag-fetch new versions and hot-swap their acting networks
// atomically between environment steps. Together with the experience service
// (internal/expserve) this turns the actor/learner split into a closed
// system: learner → policyd → N actors → replayd → learner.
//
// Rollout-training co-design treats versioned weight publication with
// bounded staleness as the key primitive: actors never block on the learner
// (they keep acting on the last installed version) and the staleness of the
// acting policy is observable and bounded by the sync cadence rather than
// unbounded (the pre-existing marl-actor acted with a frozen -load
// checkpoint forever).
//
// Wire format: one policy snapshot travels as a little-endian binary frame
// with a CRC32-IEEE trailer, the same framing idiom as expstore segments and
// expserve batches —
//
//	magic "MPOL" | u32 wireVersion | u64 learnerUpdates | u32 numAgents |
//	per agent: u32 byteLen | MLPN network bytes (nn.Network.AppendBinary) |
//	u32 CRC32-IEEE over every preceding byte
//
// The serving version is assigned by the store on publish (monotonic from
// 1), not carried in the frame, so a restarted learner republishing the
// same weights still advances every subscriber deterministically.
package policysync

import (
	"encoding/binary"
	"fmt"

	"marlperf/internal/frame"
	"marlperf/internal/nn"
	"marlperf/internal/trace"
)

// Endpoint paths served by Server and used by Client.
const (
	PathPolicy = "/v1/policy"
	PathStats  = "/v1/policy/stats"
)

const (
	frameMagic  = "MPOL"
	wireVersion = 1
	// frameHeader is the frame's bytes ahead of the first agent: magic,
	// version, updates, numAgents.
	frameHeader = 4 + 4 + 8 + 4

	// maxWireAgents bounds the per-frame agent count so a hostile header
	// cannot demand an absurd allocation before the CRC is checked.
	maxWireAgents = 1 << 12
	// maxWireNetBytes bounds one serialized network.
	maxWireNetBytes = 1 << 28
)

// Snapshot is one decoded policy version: the store-assigned serving
// version, the learner's update count when it was published, and the
// per-agent actor networks ready to act with.
type Snapshot struct {
	Version uint64 // store-assigned, monotonic from 1 (0: never served)
	Updates uint64 // learner update-stage count at publish time
	Agents  []*nn.Network
	// TraceCtx is the trace position this snapshot's delivery descends
	// from (the publisher's span, relayed by the server in the
	// X-Marl-Trace response header). Transport metadata only — it is
	// never part of the encoded frame, so traced and untraced snapshots
	// are byte-identical. Zero when the publish was not traced.
	TraceCtx trace.Context
}

// EncodeSnapshot frames the per-agent actor networks for publication,
// appending to dst. The networks are serialized with the same MLPN format
// checkpoints use, so weights round-trip bit-exactly. The frame is sized
// from the networks' shapes first, so dst grows at most once.
func EncodeSnapshot(dst []byte, updates uint64, agents []*nn.Network) ([]byte, error) {
	if len(agents) == 0 || len(agents) > maxWireAgents {
		return nil, fmt.Errorf("policysync: snapshot needs 1..%d agents, got %d", maxWireAgents, len(agents))
	}
	size := frameHeader + 4
	for _, net := range agents {
		size += 4 + net.EncodedLen()
	}
	start := len(dst)
	if cap(dst)-start < size {
		// Not slices.Grow: under -race its temporary is a second allocation.
		dst = append(make([]byte, 0, start+size), dst...)
	}
	dst = frame.AppendHeader(dst, frameMagic, wireVersion)
	dst = binary.LittleEndian.AppendUint64(dst, updates)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(agents)))
	// Each network serializes straight into the frame, behind a length
	// prefix patched in once its size is known.
	for i, net := range agents {
		lenAt := len(dst)
		var err error
		if dst, err = net.AppendBinary(append(dst, 0, 0, 0, 0)); err != nil {
			return nil, fmt.Errorf("policysync: serializing agent %d actor: %w", i, err)
		}
		n := len(dst) - lenAt - 4
		if n > maxWireNetBytes {
			return nil, fmt.Errorf("policysync: agent %d actor serializes to %d bytes (cap %d)", i, n, maxWireNetBytes)
		}
		binary.LittleEndian.PutUint32(dst[lenAt:], uint32(n))
	}
	return frame.Seal(dst, start), nil
}

// DecodeSnapshot parses and verifies one policy frame. The CRC trailer is
// checked over the whole frame before any network bytes reach the nn
// decoder, and every length field is bounded, so hostile or corrupt input
// fails cleanly instead of panicking or allocating absurdly. The returned
// snapshot carries Version 0; the transport layer stamps the serving
// version.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	d := frame.NewDecoder(data)
	d.Header(frameMagic, wireVersion)
	d.Unseal()
	updates := d.U64()
	numAgents := int(d.U32())
	if d.Err() == nil && (numAgents < 1 || numAgents > maxWireAgents) {
		d.Fail("implausible agent count %d", numAgents)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("policysync: frame: %w", err)
	}
	snap := &Snapshot{Updates: updates, Agents: make([]*nn.Network, 0, numAgents)}
	for i := 0; i < numAgents; i++ {
		n := int(d.U32())
		if d.Err() == nil && (n < 1 || n > maxWireNetBytes || n > d.Len()) {
			d.Fail("agent %d claims %d network bytes, %d remain", i, n, d.Len())
		}
		nd := frame.NewDecoder(d.Bytes(n))
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("policysync: frame: %w", err)
		}
		net, err := nn.ReadNetwork(&nd)
		if err == nil && nd.Len() != 0 {
			err = fmt.Errorf("%d undecoded bytes after it", nd.Len())
		}
		if err != nil {
			return nil, fmt.Errorf("policysync: agent %d network: %w", i, err)
		}
		snap.Agents = append(snap.Agents, net)
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("policysync: %d trailing bytes after %d agents", d.Len(), numAgents)
	}
	return snap, nil
}
