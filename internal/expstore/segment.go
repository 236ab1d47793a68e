package expstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"marlperf/internal/frame"
	"marlperf/internal/replay"
)

// Segment file format (little-endian), sealed at the first batch boundary
// at or past SegmentRows rows:
//
//	header: magic "MXPK" | u32 version | u32 numAgents | u32 actDim |
//	        per-agent u32 obsDim | u64 baseSeq | u32 actors |
//	        per actor, by ID: u32 idLen | id | u64 cursor |
//	        u32 CRC32-IEEE(header)
//	record: u64 seq | append frame (MXAP, batch.go), verbatim
//
// The cursors are every actor's newest applied batch sequence as of the
// segment's open, so the oldest retained segment still knows the cursors of
// batches whose segments retired. A record is one acknowledged batch: seq is
// the global insertion index of its first row, and record k must start
// where record k−1 ended, making any reordering or splice detectable. The
// frame carries its own CRC, so a torn or bit-flipped record fails
// verification.

const (
	segMagic   = "MXPK"
	segVersion = 2
	// segPattern names pack files; the 12-digit decimal base sequence keeps
	// lexical order equal to append order.
	segPattern = "seg-%012d.xpk"
)

// errTornHeader marks a segment whose header never finished reaching disk —
// legitimate only for the newest segment, where the crash window between
// file creation and the first flush can leave a short or damaged prefix.
var errTornHeader = errors.New("expstore: torn segment header")

// appendSegmentHeader encodes the header of a segment opening at baseSeq
// with the given per-actor cursors into dst.
func appendSegmentHeader(dst []byte, layout replay.RowLayout, baseSeq uint64, cursors map[string]uint64) []byte {
	start := len(dst)
	spec := layout.Spec()
	dst = frame.AppendHeader(dst, segMagic, segVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(spec.NumAgents))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(spec.ActDim))
	for _, od := range spec.ObsDims {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(od))
	}
	dst = binary.LittleEndian.AppendUint64(dst, baseSeq)
	actors := make([]string, 0, len(cursors))
	for actor := range cursors {
		actors = append(actors, actor)
	}
	slices.Sort(actors)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(actors)))
	for _, actor := range actors {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(actor)))
		dst = append(dst, actor...)
		dst = binary.LittleEndian.AppendUint64(dst, cursors[actor])
	}
	return frame.Seal(dst, start)
}

// segment is one parsed segment image.
type segment struct {
	baseSeq uint64
	cursors map[string]uint64 // as of the segment's open
	batches []Batch           // rows alias the image
	rows    int
	goodOff int // byte offset just past the last intact record
}

// parseSegment decodes a full segment image.
//
// With tornOK (the newest segment, where a crash may have cut the file
// mid-record) a damaged or short tail simply ends the scan: everything
// before it is returned and goodOff marks where the file should be
// truncated. A header cut short or failing its CRC returns errTornHeader.
// Without tornOK any damage is corruption and errors out — interior
// segments were sealed and fully flushed, so nothing may be missing from
// them. Either way a header of another version or spec, and a record that
// does not start where the one before it ended, are errors.
func parseSegment(data []byte, layout replay.RowLayout, tornOK bool) (segment, error) {
	spec := layout.Spec()
	d := frame.NewDecoder(data)
	d.Header(segMagic, segVersion)
	if got := d.U32(); d.Err() == nil && got != uint32(spec.NumAgents) {
		d.Fail("for %d agents, store has %d", got, spec.NumAgents)
	}
	if got := d.U32(); d.Err() == nil && got != uint32(spec.ActDim) {
		d.Fail("act dim %d, store has %d", got, spec.ActDim)
	}
	for a, od := range spec.ObsDims {
		if got := d.U32(); d.Err() == nil && got != uint32(od) {
			d.Fail("obs dim %d for agent %d, store has %d", got, a, od)
		}
	}
	seg := segment{baseSeq: d.U64(), cursors: make(map[string]uint64)}
	for i, actors := 0, int(d.U32()); i < actors && d.Err() == nil; i++ {
		actor := string(d.Bytes(int(d.U32())))
		seg.cursors[actor] = d.U64()
	}
	hs := len(data) - d.Len()
	if err := d.Err(); err != nil {
		if tornOK && errors.Is(err, io.ErrUnexpectedEOF) {
			return segment{}, errTornHeader
		}
		return segment{}, fmt.Errorf("expstore: segment header: %w", err)
	}
	if _, err := frame.Unseal(data[:min(hs+4, len(data))], "segment header"); err != nil {
		if tornOK {
			return segment{}, errTornHeader
		}
		return segment{}, fmt.Errorf("expstore: %w", err)
	}

	stride := layout.Stride()
	off := hs + 4
	for off < len(data) {
		rec := data[off:]
		size := appendFrameLen(rec[min(8, len(rec)):], stride)
		if size < 0 || len(rec) < 8+size {
			break // torn tail: partial record
		}
		b, err := DecodeAppend(rec[8:8+size], stride, new([]float64))
		if err != nil {
			break // damaged record
		}
		if seq, want := binary.LittleEndian.Uint64(rec), seg.baseSeq+uint64(seg.rows); seq != want {
			return segment{}, fmt.Errorf("expstore: segment record %d starts at seq %d, want %d", len(seg.batches), seq, want)
		}
		seg.batches = append(seg.batches, b)
		seg.rows += b.N
		off += 8 + size
	}
	if off != len(data) && !tornOK {
		return segment{}, fmt.Errorf("expstore: sealed segment damaged at byte %d of %d", off, len(data))
	}
	seg.goodOff = off
	return seg, nil
}
