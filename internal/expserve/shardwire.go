package expserve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"marlperf/internal/expshard"
	"marlperf/internal/replay"
)

// PathShardSample serves one shard's slice of a fabric-wide draw.
const PathShardSample = "/v1/shard-sample"

// Shard-sample wire frames. A fabric draw is executed server-side on
// every live shard: the client ships the frozen stream view (placement
// function + per-group row counts) inside each request, every shard
// runs the identical pure (plan, Len, seed) index selection over it,
// keeps the slots it owns, and returns those rows tagged with their
// batch slot. The client merges replies by slot — a stable
// shard-ordered merge, since slot ownership is disjoint — which makes
// the merged batch bit-identical to a single store executing the same
// draw.
//
//	request "MXHQ" (CRC32-IEEE over the whole frame):
//	  magic | u32 ver | u32 n | u64 seed
//	  | u32 plan | u32 neighbors | u32 refs
//	  | u32 partitions | u64 offset
//	  | u8 groups | u8 myGroup | u8 shardIDLen | u8 reserved
//	  | shardID | partitions×u8 part2group
//	  | groups×(u64 rows | u64 total | u8 live) | u32 CRC
//
//	reply "MXHR":
//	  magic | u32 ver | u32 k | u32 stride | u32 n | u32 headerCRC
//	  | k·stride×f64 rows (LE, 8-aligned at offset 24)
//	  | k×u32 slots | u32 slotCRC
//
// Unlike append frames (spooled to disk and replayed across restarts), a
// reply lives for one RAM-to-RAM hop on a checksummed transport; CRC-ing
// the multi-megabyte row payload on both ends would cost more than the
// rest of the decode combined, so the frame checksums only what steers
// decoding: the header and the slot region. Rows sit on an 8-byte
// boundary so little-endian hosts reinterpret them in place.
const (
	shardReqMagic    = "MXHQ"
	shardReplyMagic  = "MXHR"
	shardWireVersion = 1
	shardReplyHdr    = 24
	maxShardIDLen    = 255
)

// shardSampleRequest is the decoded form of an MXHQ frame.
type shardSampleRequest struct {
	N       int
	Seed    int64
	Plan    replay.SamplePlan
	ShardID string // target shard guard; empty skips the check
	MyGroup int

	Partitions int
	Offset     uint64
	Part2Group []int
	Stats      []expshard.GroupStat
}

func shardReqSize(shardIDLen, partitions, groups int) int {
	return 48 + shardIDLen + partitions + 17*groups + 4
}

// encodeShardSampleRequest frames one per-shard plan execution request.
func encodeShardSampleRequest(dst []byte, req shardSampleRequest) ([]byte, error) {
	code, err := planToCode(req.Plan.Strategy)
	if err != nil {
		return nil, err
	}
	if len(req.ShardID) > maxShardIDLen {
		return nil, fmt.Errorf("expserve: shard id %d bytes, max %d", len(req.ShardID), maxShardIDLen)
	}
	if len(req.Part2Group) != req.Partitions {
		return nil, fmt.Errorf("expserve: part2group len %d != partitions %d", len(req.Part2Group), req.Partitions)
	}
	if len(req.Stats) == 0 || len(req.Stats) > expshard.MaxGroups {
		return nil, fmt.Errorf("expserve: bad group count %d", len(req.Stats))
	}
	if req.MyGroup < 0 || req.MyGroup >= len(req.Stats) {
		return nil, fmt.Errorf("expserve: myGroup %d outside [0,%d)", req.MyGroup, len(req.Stats))
	}
	start := len(dst)
	dst = append(dst, shardReqMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, shardWireVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.N))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(req.Seed))
	dst = binary.LittleEndian.AppendUint32(dst, code)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.Plan.Neighbors))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.Plan.Refs))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.Partitions))
	dst = binary.LittleEndian.AppendUint64(dst, req.Offset)
	dst = append(dst, byte(len(req.Stats)), byte(req.MyGroup), byte(len(req.ShardID)), 0)
	dst = append(dst, req.ShardID...)
	for _, g := range req.Part2Group {
		if g < 0 || g >= len(req.Stats) {
			return nil, fmt.Errorf("expserve: partition maps to invalid group %d", g)
		}
		dst = append(dst, byte(g))
	}
	for _, st := range req.Stats {
		dst = binary.LittleEndian.AppendUint64(dst, st.Rows)
		dst = binary.LittleEndian.AppendUint64(dst, st.Total)
		if st.Live {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// decodeShardSampleRequest parses and verifies an MXHQ frame.
func decodeShardSampleRequest(data []byte) (shardSampleRequest, error) {
	var req shardSampleRequest
	if len(data) < 48+4 {
		return req, fmt.Errorf("expserve: shard request too short (%d bytes)", len(data))
	}
	if string(data[:4]) != shardReqMagic {
		return req, fmt.Errorf("expserve: bad shard request magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != shardWireVersion {
		return req, fmt.Errorf("expserve: shard request version %d, want %d", v, shardWireVersion)
	}
	groups := int(data[44])
	myGroup := int(data[45])
	idLen := int(data[46])
	partitions := int(binary.LittleEndian.Uint32(data[32:]))
	if partitions < 1 || partitions > expshard.MaxPartitions {
		return req, fmt.Errorf("expserve: shard request claims %d partitions", partitions)
	}
	if groups < 1 || myGroup >= groups {
		return req, fmt.Errorf("expserve: shard request groups=%d myGroup=%d", groups, myGroup)
	}
	if want := shardReqSize(idLen, partitions, groups); len(data) != want {
		return req, fmt.Errorf("expserve: shard request %d bytes, layout needs %d", len(data), want)
	}
	if want := binary.LittleEndian.Uint32(data[len(data)-4:]); crc32.ChecksumIEEE(data[:len(data)-4]) != want {
		return req, fmt.Errorf("expserve: shard request checksum mismatch")
	}
	req.N = int(int32(binary.LittleEndian.Uint32(data[8:])))
	req.Seed = int64(binary.LittleEndian.Uint64(data[12:]))
	strategy, err := codeToPlan(binary.LittleEndian.Uint32(data[20:]))
	if err != nil {
		return req, err
	}
	req.Plan = replay.SamplePlan{
		Strategy:  strategy,
		Neighbors: int(int32(binary.LittleEndian.Uint32(data[24:]))),
		Refs:      int(int32(binary.LittleEndian.Uint32(data[28:]))),
	}
	req.Partitions = partitions
	req.Offset = binary.LittleEndian.Uint64(data[36:])
	req.MyGroup = myGroup
	off := 48
	req.ShardID = string(data[off : off+idLen])
	off += idLen
	req.Part2Group = make([]int, partitions)
	for p := 0; p < partitions; p++ {
		g := int(data[off+p])
		if g >= groups {
			return req, fmt.Errorf("expserve: partition %d maps to group %d of %d", p, g, groups)
		}
		req.Part2Group[p] = g
	}
	off += partitions
	req.Stats = make([]expshard.GroupStat, groups)
	for g := 0; g < groups; g++ {
		req.Stats[g] = expshard.GroupStat{
			Rows:  binary.LittleEndian.Uint64(data[off:]),
			Total: binary.LittleEndian.Uint64(data[off+8:]),
			Live:  data[off+16] == 1,
		}
		off += 17
	}
	return req, nil
}

// shardReplySize returns the MXHR frame size for k owned rows.
func shardReplySize(k, stride int) int {
	return shardReplyHdr + 8*k*stride + 4*k + 4
}

// putShardReplyHeader writes the fixed header into buf[:shardReplyHdr].
func putShardReplyHeader(buf []byte, k, stride, n int) {
	copy(buf, shardReplyMagic)
	binary.LittleEndian.PutUint32(buf[4:], shardWireVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(k))
	binary.LittleEndian.PutUint32(buf[12:], uint32(stride))
	binary.LittleEndian.PutUint32(buf[16:], uint32(n))
	binary.LittleEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[:20]))
}

// putShardReplySlots writes the slot region and its CRC; the row
// payload at [shardReplyHdr, shardReplyHdr+8·k·stride) must already be
// in place.
func putShardReplySlots(buf []byte, k, stride int, slots []int32) {
	off := shardReplyHdr + 8*k*stride
	for i := 0; i < k; i++ {
		binary.LittleEndian.PutUint32(buf[off+4*i:], uint32(slots[i]))
	}
	binary.LittleEndian.PutUint32(buf[off+4*k:], crc32.ChecksumIEEE(buf[off:off+4*k]))
}

// decodeShardReply validates an MXHR frame against the draw's (n,
// stride), fills slots with each returned row's batch slot, and
// returns (k, raw LE row region aliasing data). slots must have
// capacity for n entries; k ≤ n rows come back.
func decodeShardReply(data []byte, n, stride int, slots []int32) (int, []byte, error) {
	if len(data) < shardReplyHdr+4 {
		return 0, nil, fmt.Errorf("%w: shard reply %d bytes", ErrShortFrame, len(data))
	}
	if string(data[:4]) != shardReplyMagic {
		return 0, nil, fmt.Errorf("expserve: bad shard reply magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != shardWireVersion {
		return 0, nil, fmt.Errorf("expserve: shard reply version %d, want %d", v, shardWireVersion)
	}
	k := int(binary.LittleEndian.Uint32(data[8:]))
	if k < 0 || k > n || k > maxWireRows {
		return 0, nil, fmt.Errorf("expserve: shard reply carries %d rows for an n=%d draw", k, n)
	}
	if got := int(binary.LittleEndian.Uint32(data[12:])); got != stride {
		return 0, nil, fmt.Errorf("expserve: shard reply stride %d, want %d", got, stride)
	}
	if got := int(binary.LittleEndian.Uint32(data[16:])); got != n {
		return 0, nil, fmt.Errorf("expserve: shard reply answers draw n=%d, want %d", got, n)
	}
	if want := binary.LittleEndian.Uint32(data[20:]); crc32.ChecksumIEEE(data[:20]) != want {
		return 0, nil, fmt.Errorf("expserve: shard reply header checksum mismatch")
	}
	if want := shardReplySize(k, stride); len(data) != want {
		if len(data) < want {
			return 0, nil, fmt.Errorf("%w: shard reply %d bytes, layout for k=%d needs %d", ErrShortFrame, len(data), k, want)
		}
		return 0, nil, fmt.Errorf("expserve: shard reply %d bytes, want %d", len(data), want)
	}
	off := shardReplyHdr + 8*k*stride
	if want := binary.LittleEndian.Uint32(data[off+4*k:]); crc32.ChecksumIEEE(data[off:off+4*k]) != want {
		return 0, nil, fmt.Errorf("expserve: shard reply slot checksum mismatch")
	}
	for i := 0; i < k; i++ {
		s := int32(binary.LittleEndian.Uint32(data[off+4*i:]))
		if s < 0 || int(s) >= n {
			return 0, nil, fmt.Errorf("expserve: shard reply slot %d outside draw of %d", s, n)
		}
		slots[i] = s
	}
	return k, data[shardReplyHdr:off], nil
}
