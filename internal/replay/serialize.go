package replay

import (
	"encoding/binary"
	"fmt"
	"io"

	"marlperf/internal/f64le"
	"marlperf/internal/frame"
)

// Buffer persistence: collected experience can be saved and restored so
// long training runs survive restarts, or so a characterization workload
// can be replayed bit-identically on another machine.
//
// Format (little-endian): magic "MARB" | uint32 version | uint32 numAgents
// | uint32 actDim | uint32 capacity | per agent uint32 obsDim |
// uint32 length | uint32 next | per agent: length·obsDim obs float64s,
// length·actDim act, length rew, length·obsDim nextObs, length done |
// (v2) uint32 CRC32-IEEE of every preceding byte.
//
// Version history: v1 had no integrity trailer; v2 appends the CRC32 so a
// truncated or bit-flipped buffer file is rejected with a descriptive error
// instead of silently restoring damaged experience. Only v2 is read: a v1
// file is refused with a version error.

const (
	bufMagic   = "MARB"
	bufVersion = 2
)

// fields returns agent a's stored rows, field by field, in file order.
func (b *Buffer) fields(a int) [5][]float64 {
	od, ad := b.spec.ObsDims[a], b.spec.ActDim
	return [5][]float64{b.obs[a][:b.length*od], b.act[a][:b.length*ad], b.rew[a][:b.length], b.nextObs[a][:b.length*od], b.done[a][:b.length]}
}

// WriteTo serializes the buffer's spec and stored transitions with a CRC32
// trailer, built in one slice and written in one write.
func (b *Buffer) WriteTo(w io.Writer) (int64, error) {
	size := 4 * (8 + b.spec.NumAgents)
	for _, od := range b.spec.ObsDims {
		size += 8 * b.length * (2*od + b.spec.ActDim + 2)
	}
	dst := frame.AppendHeader(make([]byte, 0, size), bufMagic, bufVersion)
	for _, v := range []int{b.spec.NumAgents, b.spec.ActDim, b.spec.Capacity} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	for _, od := range b.spec.ObsDims {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(od))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.length))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.next))
	for a := 0; a < b.spec.NumAgents; a++ {
		for _, field := range b.fields(a) {
			dst = f64le.Append(dst, field)
		}
	}
	n, err := w.Write(frame.Seal(dst, 0))
	return int64(n), err
}

// ReadBuffer deserializes a buffer written by WriteTo, allocating storage
// for the recorded capacity. The header is judged before the rest of the
// stream is read, and the CRC32 trailer before any field past it.
func ReadBuffer(r io.Reader) (*Buffer, error) {
	d, err := frame.Read(r, bufMagic, bufVersion)
	if err != nil {
		return nil, fmt.Errorf("replay: buffer: %w", err)
	}
	d.Unseal()
	numAgents, actDim, capacity := d.U32(), d.U32(), d.U32()
	const maxAgents, maxDim, maxCap = 1 << 12, 1 << 20, 1 << 28
	if d.Err() == nil && (numAgents == 0 || numAgents > maxAgents || actDim == 0 || actDim > maxDim || capacity == 0 || capacity > maxCap) {
		d.Fail("implausible buffer header (%d agents, act %d, cap %d)", numAgents, actDim, capacity)
	}
	spec := Spec{NumAgents: int(numAgents), ActDim: int(actDim), Capacity: int(capacity)}
	for a := uint32(0); a < numAgents && d.Err() == nil; a++ {
		od := d.U32()
		if d.Err() == nil && (od == 0 || od > maxDim) {
			d.Fail("implausible obs dim %d", od)
		}
		spec.ObsDims = append(spec.ObsDims, int(od))
	}
	length, next := d.U32(), d.U32()
	if d.Err() == nil && (length > capacity || next >= capacity) {
		d.Fail("implausible length %d / next %d for capacity %d", length, next, capacity)
	}
	// Bound the total allocation a header can demand: a corrupt
	// capacity/dim combination must fail with an error, not an
	// out-of-memory crash. 2^28 floats (2 GiB) is an order of magnitude
	// above the paper's largest configuration.
	const maxTotalFloats = 1 << 28
	var totalFloats uint64
	for _, od := range spec.ObsDims {
		totalFloats += uint64(capacity) * uint64(2*od+int(actDim)+2)
	}
	if d.Err() == nil && totalFloats > maxTotalFloats {
		d.Fail("implausible buffer storage %d floats (max %d)", totalFloats, uint64(maxTotalFloats))
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("replay: buffer: %w", err)
	}
	buf := NewBuffer(spec)
	buf.length = int(length)
	buf.next = int(next)
	for a := 0; a < spec.NumAgents; a++ {
		for _, field := range buf.fields(a) {
			d.F64s(field)
		}
	}
	if d.Err() == nil && d.Len() != 0 {
		d.Fail("%d bytes after the stored transitions", d.Len())
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("replay: buffer: %w", err)
	}
	return buf, nil
}
