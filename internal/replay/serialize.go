package replay

import (
	"encoding/binary"
	"fmt"
	"io"

	"marlperf/internal/f64le"
	"marlperf/internal/resilience"
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

// WriteTo serializes the buffer's spec and stored transitions, appending a
// CRC32 trailer.
func (b *Buffer) WriteTo(w io.Writer) (int64, error) {
	crc := resilience.NewCRCWriter(w)
	cw := &countingWriter{w: crc}
	if _, err := cw.Write([]byte(bufMagic)); err != nil {
		return cw.n, err
	}
	header := []uint32{bufVersion, uint32(b.spec.NumAgents), uint32(b.spec.ActDim), uint32(b.spec.Capacity)}
	for _, d := range b.spec.ObsDims {
		header = append(header, uint32(d))
	}
	header = append(header, uint32(b.length), uint32(b.next))
	for _, v := range header {
		if err := putU32(cw, v); err != nil {
			return cw.n, err
		}
	}
	for a := 0; a < b.spec.NumAgents; a++ {
		od := b.spec.ObsDims[a]
		for _, field := range [][]float64{
			b.obs[a][:b.length*od],
			b.act[a][:b.length*b.spec.ActDim],
			b.rew[a][:b.length],
			b.nextObs[a][:b.length*od],
			b.done[a][:b.length],
		} {
			if err := f64le.Write(cw, field); err != nil {
				return cw.n, err
			}
		}
	}
	// The trailer is not part of its own checksum: write it to the
	// underlying writer, counting its bytes by hand.
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum())
	n, err := w.Write(trailer[:])
	cw.n += int64(n)
	return cw.n, err
}

// ReadBuffer deserializes a buffer written by WriteTo, allocating storage
// for the recorded capacity. The stream is verified against its CRC32
// trailer before the buffer is returned.
func ReadBuffer(src io.Reader) (*Buffer, error) {
	crc := resilience.NewCRCReader(src)
	var r io.Reader = crc
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("replay: reading buffer magic: %w", err)
	}
	if string(magic[:]) != bufMagic {
		return nil, fmt.Errorf("replay: bad buffer magic %q", magic)
	}
	version, err := getU32(r)
	if err != nil {
		return nil, err
	}
	if version != bufVersion {
		return nil, fmt.Errorf("replay: buffer version %d, want %d", version, bufVersion)
	}
	numAgents, err := getU32(r)
	if err != nil {
		return nil, err
	}
	actDim, err := getU32(r)
	if err != nil {
		return nil, err
	}
	capacity, err := getU32(r)
	if err != nil {
		return nil, err
	}
	const maxAgents, maxDim, maxCap = 1 << 12, 1 << 20, 1 << 28
	if numAgents == 0 || numAgents > maxAgents || actDim == 0 || actDim > maxDim || capacity == 0 || capacity > maxCap {
		return nil, fmt.Errorf("replay: implausible buffer header (%d agents, act %d, cap %d)", numAgents, actDim, capacity)
	}
	spec := Spec{NumAgents: int(numAgents), ActDim: int(actDim), Capacity: int(capacity)}
	for a := uint32(0); a < numAgents; a++ {
		od, err := getU32(r)
		if err != nil {
			return nil, err
		}
		if od == 0 || od > maxDim {
			return nil, fmt.Errorf("replay: implausible obs dim %d", od)
		}
		spec.ObsDims = append(spec.ObsDims, int(od))
	}
	length, err := getU32(r)
	if err != nil {
		return nil, err
	}
	next, err := getU32(r)
	if err != nil {
		return nil, err
	}
	if length > capacity || next >= capacity {
		return nil, fmt.Errorf("replay: implausible length %d / next %d for capacity %d", length, next, capacity)
	}
	// Bound the total allocation a header can demand before a single
	// payload byte arrives: a corrupt capacity/dim combination must fail
	// with an error, not an out-of-memory crash. 2^28 floats (2 GiB) is an
	// order of magnitude above the paper's largest configuration.
	const maxTotalFloats = 1 << 28
	var totalFloats uint64
	for _, od := range spec.ObsDims {
		totalFloats += uint64(capacity) * uint64(2*od+int(actDim)+2)
	}
	if totalFloats > maxTotalFloats {
		return nil, fmt.Errorf("replay: implausible buffer storage %d floats (max %d)", totalFloats, uint64(maxTotalFloats))
	}
	buf := NewBuffer(spec)
	buf.length = int(length)
	buf.next = int(next)
	for a := 0; a < spec.NumAgents; a++ {
		od := spec.ObsDims[a]
		for _, field := range [][]float64{
			buf.obs[a][:buf.length*od],
			buf.act[a][:buf.length*spec.ActDim],
			buf.rew[a][:buf.length],
			buf.nextObs[a][:buf.length*od],
			buf.done[a][:buf.length],
		} {
			if err := f64le.Read(r, field); err != nil {
				return nil, err
			}
		}
	}
	if err := crc.VerifyTrailer("replay: buffer"); err != nil {
		return nil, err
	}
	return buf, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func putU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func getU32(r io.Reader) (uint32, error) {
	var b [4]byte
	_, err := io.ReadFull(r, b[:])
	return binary.LittleEndian.Uint32(b[:]), err
}
