// Package frame is the one codec under the program's binary formats. It
// owns the decisions every format made the same way: how a frame opens (a
// four-byte magic, then a little-endian u32 version for the formats that
// have one), how it is sealed (a CRC32-IEEE trailer over the bytes it
// covers) and how it is read back (a bounds-checked little-endian decoder
// whose first error sticks). Each format keeps its own layout.
package frame

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"marlperf/internal/f64le"
)

// AppendHeader appends magic and, unless version is 0 (the format has
// none), the u32 version.
func AppendHeader(dst []byte, magic string, version uint32) []byte {
	dst = append(dst, magic...)
	if version == 0 {
		return dst
	}
	return binary.LittleEndian.AppendUint32(dst, version)
}

// Seal appends the CRC32-IEEE of dst[start:] as a u32 trailer. With four
// bytes of spare capacity it seals in place, without growing dst.
func Seal(dst []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// Unseal verifies the u32 CRC32-IEEE trailer that ends data over every byte
// ahead of it, and returns those bytes. what names the frame in an error.
func Unseal(data []byte, what string) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%s truncated before its checksum trailer: %w", what, io.ErrUnexpectedEOF)
	}
	body := data[:len(data)-4]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(data[len(body):]); got != want {
		return nil, fmt.Errorf("%s checksum mismatch %08x != %08x (corrupt or truncated)", what, got, want)
	}
	return body, nil
}

// Read reads one whole frame of a versioned format from r and returns a
// decoder positioned past its header. It reads and judges the header first,
// so a foreign or other-version stream is refused before anything past its
// magic and version is read, and only then the rest of the stream.
func Read(r io.Reader, magic string, version uint32) (Decoder, error) {
	hdr := make([]byte, len(magic)+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Decoder{}, fmt.Errorf("reading header: %w", err)
	}
	d := NewDecoder(hdr)
	if !d.Header(magic, version) {
		return Decoder{}, d.Err()
	}
	buf := bytes.NewBuffer(hdr)
	_, err := buf.ReadFrom(r)
	d.data = buf.Bytes()
	return d, err
}

// Decoder reads little-endian fields off a byte slice. Every read is
// bounds-checked against what is left; the first failure sticks, later
// reads return zero values, and Err reports it — so a parser reads its
// fields straight through and checks once.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) Decoder { return Decoder{data: data} }

// next consumes and returns the next n bytes, or nil once the decoder has
// failed or fewer than n are left.
func (d *Decoder) next(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.data)-d.off {
		d.err = fmt.Errorf("%w: %d bytes wanted at offset %d of %d", io.ErrUnexpectedEOF, n, d.off, len(d.data))
		return nil
	}
	b := d.data[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// Header reads and checks the magic and, unless version is 0, the u32
// version. It reports whether the decoder is still good.
func (d *Decoder) Header(magic string, version uint32) bool {
	if m := d.next(len(magic)); m != nil && string(m) != magic {
		d.Fail("bad magic %q, want %q", m, magic)
	}
	if version != 0 {
		if v := d.U32(); d.err == nil && v != version {
			d.Fail("version %d, want %d", v, version)
		}
	}
	return d.err == nil
}

// Unseal verifies the CRC32-IEEE trailer that ends the decoder's input over
// all of it, header included, and drops the trailer from what is left to
// read. A sealed frame's header is judged first, then its checksum, then
// the body the checksum protects.
func (d *Decoder) Unseal() bool {
	if d.err != nil {
		return false
	}
	body, err := Unseal(d.data, "frame")
	switch {
	case err != nil:
		d.err = err
	case d.off > len(body):
		d.err = fmt.Errorf("%w: fields run into the checksum trailer", io.ErrUnexpectedEOF)
	default:
		d.data = body
	}
	return d.err == nil
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if b := d.next(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if b := d.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if b := d.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64s fills dst with 8·len(dst) bytes of little-endian float64s.
func (d *Decoder) F64s(dst []float64) {
	if b := d.next(8 * len(dst)); b != nil {
		f64le.Get(dst, b)
	}
}

// Bytes returns the next n bytes, aliasing the input, or nil on failure.
func (d *Decoder) Bytes(n int) []byte { return d.next(n) }

// Fail records a format-level error (an implausible field, a mismatch
// with what the caller expects) unless an earlier one already stuck.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Len returns how many bytes are left to read.
func (d *Decoder) Len() int { return len(d.data) - d.off }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }
