package replay

import (
	"encoding/binary"
	"fmt"
	"slices"

	"marlperf/internal/f64le"
	"marlperf/internal/frame"
)

// Buffer persistence: collected experience can be saved and restored so
// long training runs survive restarts, or so a characterization workload
// can be replayed bit-identically on another machine. Both stores write the
// same section, so one written by a KVBuffer restores into a Buffer and the
// reverse.
//
// Format (little-endian): magic "MARB" | uint32 version | uint32 numAgents
// | uint32 actDim | uint32 capacity | per agent uint32 obsDim |
// uint32 length | uint32 next | per agent: length·obsDim obs float64s,
// length·actDim act, length rew, length·obsDim nextObs, length done, each
// in slot order | (v2) uint32 CRC32-IEEE of every preceding byte.
//
// Version history: v1 had no integrity trailer; v2 appends the CRC32 so a
// truncated or bit-flipped buffer file is rejected with a descriptive error
// instead of silently restoring damaged experience. Only v2 is read: a v1
// file is refused with a version error.

const (
	bufMagic   = "MARB"
	bufVersion = 2
)

// rowBytes returns the encoded size of one row of every agent's fields.
func (s Spec) rowBytes() int {
	n := 0
	for _, od := range s.ObsDims {
		n += 2*od + s.ActDim + 2
	}
	return 8 * n
}

// fields returns agent a's stored rows, field by field, in file order.
func (b *Buffer) fields(a int) [numRegions][]float64 {
	od, ad := b.spec.ObsDims[a], b.spec.ActDim
	return [numRegions][]float64{b.obs[a][:b.length*od], b.act[a][:b.length*ad], b.rew[a][:b.length], b.nextObs[a][:b.length*od], b.done[a][:b.length]}
}

func (b *Buffer) appendField(dst []byte, a, field int) []byte {
	return f64le.Append(dst, b.fields(a)[field])
}

func (k *KVBuffer) appendField(dst []byte, a, field int) []byte {
	off, width := k.layout.field(a, field)
	stride := k.layout.Stride()
	for row := k.data[:k.length*stride]; len(row) > 0; row = row[stride:] {
		dst = f64le.Append(dst, row[off:off+width])
	}
	return dst
}

// AppendSection appends st's spec and stored transitions to dst as one MARB
// section with its CRC32 trailer, growing dst once.
func AppendSection(dst []byte, st Store) []byte {
	r := st.slots()
	start := len(dst)
	// The header is magic, version, shape and the two cursors; the CRC32
	// trailer follows the rows.
	dst = slices.Grow(dst, 4*(7+r.spec.NumAgents)+r.length*r.spec.rowBytes()+4)
	dst = frame.AppendHeader(dst, bufMagic, bufVersion)
	for _, v := range []int{r.spec.NumAgents, r.spec.ActDim, r.spec.Capacity} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	for _, od := range r.spec.ObsDims {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(od))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.length))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.next))
	for a := 0; a < r.spec.NumAgents; a++ {
		for f := 0; f < numRegions; f++ {
			dst = st.appendField(dst, a, f)
		}
	}
	return frame.Seal(dst, start)
}

// Section is a checked MARB section, still in its bytes: the rows a store
// wrote, which AddTo adds to another store.
type Section struct {
	rows ring   // the writer's shape and cursors
	body []byte // the field blocks, agent by agent, in file order
}

// ReadSection checks data as a MARB section of rows shaped as spec: its
// magic, version and checksum, a header naming spec's shape and capacity
// with a length within it, and exactly the bytes that length declares. It
// copies nothing and allocates nothing sized from the header: the returned
// Section is a view of data.
func ReadSection(data []byte, spec Spec) (Section, error) {
	d := frame.NewDecoder(data)
	d.Header(bufMagic, bufVersion)
	d.Unseal()
	numAgents, actDim, capacity := d.U32(), d.U32(), d.U32()
	if d.Err() == nil && (int64(numAgents) != int64(spec.NumAgents) || int64(actDim) != int64(spec.ActDim) || int64(capacity) != int64(spec.Capacity)) {
		d.Fail("shape %d agents × act %d, capacity %d, does not fit the store's %d × %d, capacity %d",
			numAgents, actDim, capacity, spec.NumAgents, spec.ActDim, spec.Capacity)
	}
	for a := 0; a < spec.NumAgents && d.Err() == nil; a++ {
		if od := d.U32(); d.Err() == nil && int64(od) != int64(spec.ObsDims[a]) {
			d.Fail("shape: agent %d obs dim %d does not fit the store's %d", a, od, spec.ObsDims[a])
		}
	}
	length, next := d.U32(), d.U32()
	if d.Err() == nil && (length > capacity || next >= capacity) {
		d.Fail("implausible length %d / next %d for capacity %d", length, next, capacity)
	}
	if want := uint64(length) * uint64(spec.rowBytes()); d.Err() == nil && uint64(d.Len()) != want {
		d.Fail("%d bytes of rows, the header declares %d", d.Len(), want)
	}
	if err := d.Err(); err != nil {
		return Section{}, fmt.Errorf("replay: buffer: %w", err)
	}
	return Section{rows: ring{spec: spec, length: int(length), next: int(next)}, body: d.Bytes(d.Len())}, nil
}

// AddTo adds the section's rows to st, oldest first, through st.Add, so st's
// listeners hear of each one as they do in training. st must hold rows of
// the spec ReadSection checked; it need not be empty, nor of the layout
// that wrote the section.
func (s Section) AddTo(st Store) {
	spec, n := s.rows.spec, s.rows.spec.NumAgents
	obs, act, nextObs := make([][]float64, n), make([][]float64, n), make([][]float64, n)
	rew, done := make([]float64, n), make([]float64, n)
	dst := make([][numRegions][]float64, n) // where each field of a row decodes to, in file order
	for a := range dst {
		obs[a], act[a], nextObs[a] = make([]float64, spec.ObsDims[a]), make([]float64, spec.ActDim), make([]float64, spec.ObsDims[a])
		dst[a] = [numRegions][]float64{obs[a], act[a], rew[a : a+1], nextObs[a], done[a : a+1]}
	}
	for k := 0; k < s.rows.length; k++ {
		slot, block := (s.rows.oldest()+k)%spec.Capacity, s.body
		for _, fields := range dst {
			for _, field := range fields {
				size := 8 * len(field) // one slot's bytes; the field's block holds length of them
				f64le.Get(field, block[slot*size:])
				block = block[s.rows.length*size:]
			}
		}
		st.Add(obs, act, rew, nextObs, done)
	}
}
