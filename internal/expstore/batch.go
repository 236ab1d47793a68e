package expstore

import (
	"encoding/binary"
	"fmt"
	"slices"

	"marlperf/internal/f64le"
	"marlperf/internal/frame"
)

// Append frame (MXAP), one actor batch, little-endian:
//
//	magic "MXAP" | u32 version | u32 actorLen | actor | u64 batchSeq |
//	u32 rowCount | u32 stride | rowCount×stride f64 rows | u32 CRC32-IEEE
//
// It is the batch's only byte form: an actor ships it, spools it while the
// server is down, and the durable Store writes it verbatim into a segment.

const (
	appendMagic   = "MXAP"
	appendVersion = 1

	// maxFrameRows bounds the row count a frame may claim, so a hostile or
	// corrupt header cannot demand an absurd allocation.
	maxFrameRows = 1 << 20

	// AppendPrefix is the append frame's magic, version and actorLen.
	AppendPrefix = 12
)

// AppendHeaderLen returns the bytes of an append frame ahead of its rows:
// the prefix, the actor ID, then seq, rows and stride.
func AppendHeaderLen(actorLen int) int { return AppendPrefix + actorLen + 16 }

// AppendPad returns the bytes ahead of an append frame in 8-aligned memory
// that put its rows on an 8-byte boundary.
func AppendPad(actorLen int) int { return (8 - AppendHeaderLen(actorLen)%8) % 8 }

// Batch is one actor's append batch. ActorID plus the per-actor monotonic
// BatchSeq make retries idempotent: the server remembers the newest applied
// sequence per actor and acknowledges duplicates without re-appending them.
type Batch struct {
	ActorID  string
	BatchSeq uint64
	Rows     []float64 // N·stride packed rows
	N        int
}

// EncodeAppend appends b's frame to dst: dst grows at most once and the
// rows go in as one bulk copy. A sink that frames its staged rows in place
// writes AppendBatchHeader ahead of them and seals instead.
func EncodeAppend(dst []byte, b Batch, stride int) []byte {
	start := len(dst)
	dst = slices.Grow(dst, AppendHeaderLen(len(b.ActorID))+8*b.N*stride+4)
	dst = AppendBatchHeader(dst, b.ActorID, b.BatchSeq, b.N, stride)
	dst = f64le.Append(dst, b.Rows[:b.N*stride])
	return frame.Seal(dst, start)
}

// AppendBatchHeader appends an append frame's header, all that precedes its rows.
func AppendBatchHeader(dst []byte, actorID string, seq uint64, n, stride int) []byte {
	dst = frame.AppendHeader(dst, appendMagic, appendVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(actorID)))
	dst = append(dst, actorID...)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	return binary.LittleEndian.AppendUint32(dst, uint32(stride))
}

// DecodeAppend parses and verifies an append frame against the expected
// layout stride. The returned Rows alias data when its row payload can be
// viewed as floats in place and *scratch when it cannot — either way they
// are valid only as long as the buffer they alias.
func DecodeAppend(data []byte, stride int, scratch *[]float64) (Batch, error) {
	d := frame.NewDecoder(data)
	d.Header(appendMagic, appendVersion)
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
	if d.Err() == nil && (n < 0 || n > maxFrameRows || d.Len() != 8*n*stride+4) {
		d.Fail("append frame claims %d rows but carries %d bytes", n, len(data))
	}
	d.Unseal()
	rows := d.Bytes(8 * n * stride)
	if err := d.Err(); err != nil {
		return Batch{}, fmt.Errorf("expstore: append frame: %w", err)
	}
	return Batch{ActorID: string(actor), BatchSeq: seq, Rows: f64le.View(rows, scratch), N: n}, nil
}

// appendFrameLen returns the length of the append frame data starts with,
// read from its header alone, or -1 when data is too short to tell.
func appendFrameLen(data []byte, stride int) int {
	if len(data) < AppendPrefix {
		return -1
	}
	actorLen := int(binary.LittleEndian.Uint32(data[8:]))
	if actorLen > 256 || len(data) < AppendHeaderLen(actorLen) {
		return -1
	}
	n := int(binary.LittleEndian.Uint32(data[AppendPrefix+actorLen+8:]))
	if n > maxFrameRows {
		return -1
	}
	return AppendHeaderLen(actorLen) + 8*n*stride + 4
}
