package faultnet

import (
	"errors"
	"io"
	"os"
)

// I/O faults: a writer that fails or tears, a reader that flips a bit, and
// in-place damage to a stored file. The serialization and snapshot tests use
// them to prove that every reader rejects what a torn write or bit rot
// leaves behind.

// ErrInjectedFault is the default error of a FaultWriter.
var ErrInjectedFault = errors.New("faultnet: injected write fault")

// FaultWriter passes writes through until Remaining bytes have been
// written, then fails. With Short set the faulting write commits the bytes
// that fit and returns io.ErrShortWrite (a torn tail, the classic
// unchecked-short-write corruption); otherwise nothing more is written and
// Err (default ErrInjectedFault) is returned.
type FaultWriter struct {
	W         io.Writer
	Remaining int64 // bytes allowed before the fault fires
	Short     bool
	Err       error
}

func (f *FaultWriter) Write(p []byte) (int, error) {
	if int64(len(p)) <= f.Remaining {
		f.Remaining -= int64(len(p))
		return f.W.Write(p)
	}
	fit := f.Remaining
	f.Remaining = 0
	if fit > 0 {
		if n, err := f.W.Write(p[:fit]); err != nil {
			return n, err
		}
	}
	if f.Short {
		return int(fit), io.ErrShortWrite
	}
	if f.Err != nil {
		return int(fit), f.Err
	}
	return int(fit), ErrInjectedFault
}

// BitFlipReader passes reads through, XORing Mask into the byte at stream
// Offset — a single-event upset in stored data.
type BitFlipReader struct {
	R      io.Reader
	Offset int64
	Mask   byte

	pos int64
}

func (b *BitFlipReader) Read(p []byte) (int, error) {
	n, err := b.R.Read(p)
	if n > 0 && b.Offset >= b.pos && b.Offset < b.pos+int64(n) {
		p[b.Offset-b.pos] ^= b.Mask
	}
	b.pos += int64(n)
	return n, err
}

// FlipBitInFile XORs mask into the byte at offset of the file at path,
// simulating on-disk corruption of a stored snapshot generation.
func FlipBitInFile(path string, offset int64, mask byte) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], offset); err != nil {
		return err
	}
	b[0] ^= mask
	_, err = f.WriteAt(b[:], offset)
	return err
}

// TruncateFile cuts the file at path down to size bytes, simulating a torn
// write from a crashed non-atomic writer.
func TruncateFile(path string, size int64) error {
	return os.Truncate(path, size)
}
