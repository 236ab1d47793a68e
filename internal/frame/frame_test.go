package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"

	"marlperf/internal/f64le"
)

// A sealed frame is its header, its body and the CRC32-IEEE of both, and
// reads back field for field.
func TestHeaderSealDecodeRoundTrip(t *testing.T) {
	data := AppendHeader(nil, "TEST", 3)
	data = append(data, 7, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0)
	data = f64le.Append(data, []float64{1, -2})
	data = append(data, "tail"...)
	body := len(data)
	data = Seal(data, 0)
	if len(data) != body+4 || string(data[:8]) != "TEST\x03\x00\x00\x00" {
		t.Fatalf("frame % x", data)
	}
	if got, want := binary.LittleEndian.Uint32(data[body:]), crc32.ChecksumIEEE(data[:body]); got != want {
		t.Fatalf("trailer %08x, want the CRC32-IEEE %08x of everything ahead of it", got, want)
	}

	d := NewDecoder(data)
	if !d.Header("TEST", 3) || !d.Unseal() {
		t.Fatal(d.Err())
	}
	u8, u32, u64 := d.U8(), d.U32(), d.U64()
	floats := make([]float64, 2)
	d.F64s(floats)
	tail := d.Bytes(4)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if u8 != 7 || u32 != 1 || u64 != 2 || floats[0] != 1 || floats[1] != -2 || string(tail) != "tail" || d.Len() != 0 {
		t.Fatalf("decoded %d %d %d %v %q with %d left", u8, u32, u64, floats, tail, d.Len())
	}
}

// The first failure sticks: every later read returns zero and Err keeps
// the first cause, so a parser reads straight through and checks once.
func TestDecoderErrorSticks(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	if v := d.U32(); v != 0 || !errors.Is(d.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("short read: %d, %v", v, d.Err())
	}
	first := d.Err()
	d.Fail("later %d", 1)
	if d.U8() != 0 || d.Bytes(1) != nil || d.Err() != first || d.Len() != 3 {
		t.Fatalf("a read after the failure went through or replaced it: %v", d.Err())
	}

	d = NewDecoder([]byte{1, 2})
	d.Fail("implausible %d", 9)
	if d.U8() != 0 || d.Err().Error() != "implausible 9" {
		t.Fatalf("Fail: %v", d.Err())
	}
	d = NewDecoder(make([]byte, 8))
	floats := []float64{math.Pi, math.Pi}
	if d.F64s(floats); d.Err() == nil || floats[0] != math.Pi {
		t.Fatalf("F64s past the end: %v, wrote %v", d.Err(), floats)
	}
	if d := NewDecoder([]byte{1}); d.Bytes(-1) != nil || d.Err() == nil {
		t.Fatal("a negative length was read")
	}
}

func TestHeaderRejectsMagicAndVersion(t *testing.T) {
	for _, tc := range []struct {
		data    []byte
		version uint32
		want    string
	}{
		{AppendHeader(nil, "XXXX", 2), 2, `bad magic "XXXX", want "GOOD"`},
		{AppendHeader(nil, "GOOD", 1), 2, "version 1, want 2"},
		{[]byte("GOO"), 2, "unexpected EOF"},
		{[]byte("GOOD\x02\x00"), 2, "unexpected EOF"},
		{[]byte("XXXX"), 0, `bad magic "XXXX"`},
	} {
		d := NewDecoder(tc.data)
		if d.Header("GOOD", tc.version) || d.Err() == nil || !strings.Contains(d.Err().Error(), tc.want) {
			t.Fatalf("% x: %v, want %q", tc.data, d.Err(), tc.want)
		}
	}
	// Version 0 is a format without a version field.
	if d := NewDecoder([]byte("GOOD\x07")); !d.Header("GOOD", 0) || d.U8() != 7 {
		t.Fatalf("versionless header: %v", d.Err())
	}
}

func TestUnsealRejectsDamage(t *testing.T) {
	frame := Seal([]byte("MAGCpayload"), 0)
	if body, err := Unseal(frame, "test frame"); err != nil || string(body) != "MAGCpayload" {
		t.Fatalf("Unseal: %q, %v", body, err)
	}
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x10
		if _, err := Unseal(bad, "test frame"); err == nil || !strings.Contains(err.Error(), "test frame checksum mismatch") {
			t.Fatalf("flip at %d: %v", i, err)
		}
	}
	if _, err := Unseal(frame[:3], "test frame"); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("3-byte frame: %v", err)
	}
	// A header that reaches into the trailer is a truncation, not a body.
	d := NewDecoder(Seal([]byte("MAG"), 0))
	d.Bytes(5)
	if d.Unseal() || !errors.Is(d.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("header into the trailer: %v", d.Err())
	}
}

// Seal appends into spare capacity: a frame laid out with room for its
// trailer seals in place.
func TestSealInPlace(t *testing.T) {
	mem := make([]byte, 12)
	copy(mem, "MAGCbody")
	sealed := Seal(mem[:8], 0)
	if &sealed[0] != &mem[0] || len(sealed) != 12 {
		t.Fatal("Seal reallocated a frame that had room for its trailer")
	}
	if _, err := Unseal(mem, "in place"); err != nil {
		t.Fatal(err)
	}
}

// Read judges the header before it reads past it, then reads the rest.
func TestReadJudgesHeaderFirst(t *testing.T) {
	good := Seal(append(AppendHeader(nil, "GOOD", 2), "body"...), 0)
	d, err := Read(bytes.NewReader(good), "GOOD", 2)
	if err != nil || !d.Unseal() || string(d.Bytes(4)) != "body" || d.Len() != 0 {
		t.Fatalf("Read: %v / %v", err, d.Err())
	}

	old := append(AppendHeader(nil, "GOOD", 1), "a much longer body"...)
	r := bytes.NewReader(old)
	if _, err := Read(r, "GOOD", 2); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("old version: %v", err)
	}
	if read := len(old) - r.Len(); read != 8 {
		t.Fatalf("%d bytes read before the version error, want the 8 of the header", read)
	}
	if _, err := Read(bytes.NewReader([]byte("GOO")), "GOOD", 2); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short header: %v", err)
	}
}
