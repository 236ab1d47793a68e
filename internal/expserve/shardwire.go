package expserve

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"marlperf/internal/expshard"
	"marlperf/internal/frame"
)

// PathShardSample serves one shard's slice of a fabric-wide draw.
const PathShardSample = "/v1/shard-sample"

// Shard-sample wire frames. The learner selects, the shard gathers: the
// client runs the plan over its frozen stream view once, maps every drawn
// index to its owning group and that group's local row, and sends each
// group only its own local indices, in batch-slot order, beside the group's
// row counts as the view saw them. The shard shifts the locals by how far
// its trim has drifted since, gathers, and returns the rows in the order
// asked; the client already knows which slot each one fills, so the merged
// batch is the one a single store executing the same draw returns.
//
//	request "MXHQ" (CRC32-IEEE over the whole frame):
//	  magic | u32 ver | u32 k | u64 rows | u64 total
//	  | u8 shardIDLen | 3×u8 reserved | shardID | k×u32 local | u32 CRC
//
//	reply "MXHR":
//	  magic | u32 ver | u32 k | u32 stride | u32 requestCRC | u32 headerCRC
//	  | k·stride×f64 rows (LE, 8-aligned at offset 24)
//
// Unlike append frames (spooled to disk and replayed across restarts), a
// reply lives for one RAM-to-RAM hop on a checksummed transport; CRC-ing
// the multi-megabyte row payload on both ends would cost more than the
// rest of the decode combined, so the reply checksums only its header,
// which names the request it answers by that request's CRC. Rows sit on an
// 8-byte boundary so little-endian hosts reinterpret them in place.
const (
	shardReqMagic    = "MXHQ"
	shardReplyMagic  = "MXHR"
	shardWireVersion = 2
	shardReqHdr      = 32
	shardReplyHdr    = 24
	maxShardIDLen    = 255
)

// shardSampleRequest is the decoded form of an MXHQ frame.
type shardSampleRequest struct {
	ShardID string             // target shard guard; empty skips the check
	Stat    expshard.GroupStat // the group's rows and total in the client's view (Live unused)
	Locals  []int              // row indices within Stat's retained window, in slot order
}

func shardReqSize(shardIDLen, k int) int {
	return shardReqHdr + shardIDLen + 4*k + 4
}

// encodeShardSampleRequest frames one group's share of a draw.
func encodeShardSampleRequest(dst []byte, req shardSampleRequest) ([]byte, error) {
	if len(req.ShardID) > maxShardIDLen {
		return nil, fmt.Errorf("expserve: shard id %d bytes, max %d", len(req.ShardID), maxShardIDLen)
	}
	if req.Stat.Rows > req.Stat.Total {
		return nil, fmt.Errorf("expserve: view stat rows %d > total %d", req.Stat.Rows, req.Stat.Total)
	}
	k := len(req.Locals)
	if k > maxWireRows {
		return nil, fmt.Errorf("expserve: %d rows in one shard request, max %d", k, maxWireRows)
	}
	start := len(dst)
	dst = slices.Grow(dst, shardReqSize(len(req.ShardID), k))
	dst = frame.AppendHeader(dst, shardReqMagic, shardWireVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	dst = binary.LittleEndian.AppendUint64(dst, req.Stat.Rows)
	dst = binary.LittleEndian.AppendUint64(dst, req.Stat.Total)
	dst = append(dst, byte(len(req.ShardID)), 0, 0, 0)
	dst = append(dst, req.ShardID...)
	locals := dst[len(dst) : len(dst)+4*k]
	for i, l := range req.Locals {
		if l < 0 || uint64(l) >= req.Stat.Rows || uint64(l) > math.MaxUint32 {
			return nil, fmt.Errorf("expserve: local row %d outside the view's %d rows", l, req.Stat.Rows)
		}
		binary.LittleEndian.PutUint32(locals[4*i:], uint32(l))
	}
	return frame.Seal(dst[:len(dst)+4*k], start), nil
}

// decodeShardSampleRequest parses and verifies an MXHQ frame. req.Locals
// reuses locals' storage when it is large enough.
func decodeShardSampleRequest(data []byte, locals []int) (shardSampleRequest, error) {
	var req shardSampleRequest
	d := frame.NewDecoder(data)
	d.Header(shardReqMagic, shardWireVersion)
	k := int(d.U32())
	req.Stat = expshard.GroupStat{Rows: d.U64(), Total: d.U64()}
	idLen := int(d.U8())
	d.Bytes(3) // reserved
	if d.Err() == nil && (k > maxWireRows || len(data) != shardReqSize(idLen, k)) {
		d.Fail("%d bytes do not hold k=%d", len(data), k)
	}
	d.Unseal()
	if d.Err() == nil && req.Stat.Rows > req.Stat.Total {
		d.Fail("view stat rows %d > total %d", req.Stat.Rows, req.Stat.Total)
	}
	id := d.Bytes(idLen)
	if err := d.Err(); err != nil {
		return shardSampleRequest{}, fmt.Errorf("expserve: shard request: %w", err)
	}
	req.ShardID = string(id)
	if cap(locals) < k {
		locals = make([]int, k)
	}
	req.Locals = locals[:k]
	for i := range req.Locals {
		l := d.U32()
		if uint64(l) >= req.Stat.Rows {
			return shardSampleRequest{}, fmt.Errorf("expserve: shard request local row %d outside the view's %d rows", l, req.Stat.Rows)
		}
		req.Locals[i] = int(l)
	}
	return req, nil
}

// shardReplySize returns the MXHR frame size for k rows.
func shardReplySize(k, stride int) int {
	return shardReplyHdr + 8*k*stride
}

// putShardReplyHeader writes the fixed header, sealed, into buf[:shardReplyHdr].
func putShardReplyHeader(buf []byte, k, stride int, reqCRC uint32) {
	hdr := frame.AppendHeader(buf[:0], shardReplyMagic, shardWireVersion)
	for _, v := range []uint32{uint32(k), uint32(stride), reqCRC} {
		hdr = binary.LittleEndian.AppendUint32(hdr, v)
	}
	frame.Seal(hdr, 0)
}

// requestCRC is the trailing checksum of an encoded MXHQ frame: the name a
// reply gives the request it answers.
func requestCRC(req []byte) uint32 {
	return binary.LittleEndian.Uint32(req[len(req)-4:])
}

// decodeShardReply validates an MXHR frame as the answer to the request
// whose CRC is reqCRC, asking for k rows of stride floats, and returns the
// raw LE row region aliasing data.
func decodeShardReply(data []byte, k, stride int, reqCRC uint32) ([]byte, error) {
	if len(data) < shardReplyHdr {
		return nil, fmt.Errorf("%w: shard reply %d bytes", ErrShortFrame, len(data))
	}
	d := frame.NewDecoder(data[:shardReplyHdr])
	d.Header(shardReplyMagic, shardWireVersion)
	d.Unseal()
	if got := int(d.U32()); d.Err() == nil && got != k {
		d.Fail("carries %d rows, the request asked for %d", got, k)
	}
	if got := int(d.U32()); d.Err() == nil && got != stride {
		d.Fail("stride %d, want %d", got, stride)
	}
	if got := d.U32(); d.Err() == nil && got != reqCRC {
		d.Fail("answers request %#08x, not %#08x", got, reqCRC)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("expserve: shard reply: %w", err)
	}
	if want := shardReplySize(k, stride); len(data) != want {
		if len(data) < want {
			return nil, fmt.Errorf("%w: shard reply %d bytes, layout for k=%d needs %d", ErrShortFrame, len(data), k, want)
		}
		return nil, fmt.Errorf("expserve: shard reply %d bytes, want %d", len(data), want)
	}
	return data[shardReplyHdr:], nil
}
