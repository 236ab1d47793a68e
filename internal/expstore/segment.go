package expstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"marlperf/internal/f64le"
	"marlperf/internal/frame"
	"marlperf/internal/replay"
)

// Segment file format (little-endian), one file per SegmentRows records:
//
//	header: magic "MXPK" | u32 version | u32 numAgents | u32 actDim |
//	        per-agent u32 obsDim | u64 baseSeq | u32 CRC32-IEEE(header)
//	record: u32 payloadLen | u64 seq | stride×f64 row | u32 CRC32-IEEE(frame)
//
// payloadLen is fixed for a given layout (8 + stride·8), which doubles as a
// cheap plausibility check before the CRC. The record CRC covers the length
// prefix and payload, so a torn or bit-flipped frame — including a torn
// length prefix — fails verification. seq is the row's global insertion
// index; record k of a segment must carry seq = baseSeq+k, making any
// reordering or splice detectable.

const (
	segMagic   = "MXPK"
	segVersion = 1
	// segSuffix names pack files; the 12-digit decimal base sequence keeps
	// lexical order equal to append order.
	segPattern = "seg-%012d.xpk"
)

// errTornHeader marks a segment whose header never finished reaching disk —
// legitimate only for the newest segment, where the crash window between
// file creation and the first flush can leave a short or damaged prefix.
var errTornHeader = errors.New("expstore: torn segment header")

// segHeaderSize returns the encoded header length for a layout.
func segHeaderSize(layout replay.RowLayout) int {
	return 4 + 4 + 4 + 4 + 4*layout.Spec().NumAgents + 8 + 4
}

// recordSize returns the full on-disk frame length for one record.
func recordSize(layout replay.RowLayout) int {
	return 4 + recordPayloadLen(layout) + 4
}

// recordPayloadLen returns the payload byte count (seq + packed row).
func recordPayloadLen(layout replay.RowLayout) int {
	return 8 + 8*layout.Stride()
}

// appendSegmentHeader encodes the segment header for baseSeq into dst.
func appendSegmentHeader(dst []byte, layout replay.RowLayout, baseSeq uint64) []byte {
	start := len(dst)
	spec := layout.Spec()
	dst = frame.AppendHeader(dst, segMagic, segVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(spec.NumAgents))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(spec.ActDim))
	for _, od := range spec.ObsDims {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(od))
	}
	dst = binary.LittleEndian.AppendUint64(dst, baseSeq)
	return frame.Seal(dst, start)
}

// appendRecord encodes one CRC-framed record into dst.
func appendRecord(dst []byte, layout replay.RowLayout, seq uint64, row []float64) []byte {
	if len(row) != layout.Stride() {
		panic(fmt.Sprintf("expstore: appendRecord row of %d floats, want %d", len(row), layout.Stride()))
	}
	start := len(dst)
	dst = slices.Grow(dst, recordSize(layout))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(recordPayloadLen(layout)))
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = f64le.Append(dst, row)
	return frame.Seal(dst, start)
}

// parseSegment decodes a full segment image. It returns the header base
// sequence, the decoded rows packed back-to-back (n rows of layout.Stride()
// floats), and goodOff, the byte offset just past the last intact record.
//
// With tornOK (the newest segment, where a crash may have cut the file
// mid-frame) a damaged or short tail simply ends the scan: everything before
// it is returned and goodOff marks where the file should be truncated. A
// header that fails verification returns errTornHeader. Without tornOK any
// damage is corruption and errors out — interior segments were sealed and
// fully flushed, so nothing may be missing from them.
func parseSegment(data []byte, layout replay.RowLayout, tornOK bool) (baseSeq uint64, rows []float64, n int, goodOff int, err error) {
	spec := layout.Spec()
	hs := segHeaderSize(layout)
	if len(data) < hs {
		if tornOK {
			return 0, nil, 0, 0, errTornHeader
		}
		return 0, nil, 0, 0, fmt.Errorf("expstore: segment shorter than header (%d < %d bytes)", len(data), hs)
	}
	d := frame.NewDecoder(data[:hs])
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
	baseSeq = d.U64()
	if err := d.Err(); err != nil {
		return 0, nil, 0, 0, fmt.Errorf("expstore: segment: %w", err)
	}
	if !d.Unseal() {
		if tornOK {
			return 0, nil, 0, 0, errTornHeader
		}
		return 0, nil, 0, 0, fmt.Errorf("expstore: segment header: %w", d.Err())
	}

	stride := layout.Stride()
	size := recordSize(layout)
	payload := recordPayloadLen(layout)
	off := hs
	rows = make([]float64, 0, (len(data)-hs)/size*stride)
	for off < len(data) {
		if len(data)-off < size {
			break // torn tail: partial frame
		}
		rec := data[off : off+size]
		if got := binary.LittleEndian.Uint32(rec); got != uint32(payload) {
			break // torn or foreign frame
		}
		if _, err := frame.Unseal(rec, "record"); err != nil {
			break // damaged frame
		}
		seq := binary.LittleEndian.Uint64(rec[4:])
		if seq != baseSeq+uint64(n) {
			return baseSeq, nil, 0, 0, fmt.Errorf("expstore: segment record %d carries seq %d, want %d", n, seq, baseSeq+uint64(n))
		}
		rows = rows[:(n+1)*stride]
		f64le.Get(rows[n*stride:], rec[12:])
		n++
		off += size
	}
	if off != len(data) && !tornOK {
		return baseSeq, nil, 0, 0, fmt.Errorf("expstore: sealed segment damaged at byte %d of %d", off, len(data))
	}
	return baseSeq, rows, n, off, nil
}
