// Package f64le converts between float64 slices and their little-endian
// byte representation — the encoding shared by the segment files and every
// bulk wire frame in the system. On little-endian hosts (every platform we
// run on in practice) the conversion is a reinterpreting view or a single
// memmove; on other hosts, or for misaligned buffers, it falls back to a
// portable per-element loop with identical bytes. Callers never need to
// know which path ran: the encoded form is little-endian either way, so
// frames are interchangeable across hosts.
//
// This is what makes the experience-sample wire path "zero-copy" in the
// useful sense: sampled rows move ring storage → response buffer → socket
// → client tensor with one memmove per hop and no intermediate
// float64-by-float64 marshal loop.
package f64le

import (
	"encoding/binary"
	"math"
	"slices"
	"unsafe"
)

// Native reports whether the host's in-memory float64 layout already is
// little-endian, i.e. whether reinterpreting views are legal.
var Native = func() bool {
	one := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&one)) == 0x02
}()

// aligned8 reports whether b's backing array starts on an 8-byte boundary
// (reinterpreting it as []float64 requires natural alignment).
func aligned8(b []byte) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0
}

// Bytes returns the little-endian byte view of f without copying, or nil
// when the host layout does not permit one (big-endian). An empty slice
// returns an empty view.
func Bytes(f []float64) []byte {
	if !Native {
		return nil
	}
	if len(f) == 0 {
		return []byte{}
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), len(f)*8)
}

// Floats returns the float64 view of the little-endian bytes in b without
// copying, or nil when a view is not possible (big-endian host, misaligned
// buffer, or len(b) not a multiple of 8). An empty input returns an empty
// view.
func Floats(b []byte) []float64 {
	if !Native || len(b)%8 != 0 {
		return nil
	}
	if len(b) == 0 {
		return []float64{}
	}
	if !aligned8(b) {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

// Put encodes src into dst as little-endian bytes. dst must hold
// 8·len(src) bytes. One memmove on little-endian hosts.
func Put(dst []byte, src []float64) {
	if b := Bytes(src); b != nil {
		copy(dst, b)
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// Get decodes 8·len(dst) little-endian bytes from src into dst. One
// memmove on little-endian hosts, wherever src sits: it is dst that is
// viewed as bytes, and a []float64 is always aligned.
func Get(dst []float64, src []byte) {
	if b := Bytes(dst); b != nil {
		copy(b, src[:len(b)])
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// Append appends src's little-endian encoding to dst, growing dst as the
// append built-in would.
func Append(dst []byte, src []float64) []byte {
	off := len(dst)
	dst = slices.Grow(dst, 8*len(src))[:off+8*len(src)]
	Put(dst[off:], src)
	return dst
}

// View returns the floats encoded in src without copying when Floats can,
// and otherwise decodes them into *scratch, which it grows when too small.
// Either way the result is valid only as long as the buffer it aliases.
func View(src []byte, scratch *[]float64) []float64 {
	if view := Floats(src); view != nil {
		return view
	}
	n := len(src) / 8
	if cap(*scratch) < n {
		*scratch = make([]float64, n)
	}
	rows := (*scratch)[:n]
	Get(rows, src)
	return rows
}
