package resilience

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// Fault-injection harness. Production code never constructs these; the
// store and the serialization tests use them to prove that every recovery
// path — truncated files, bit flips, short writes, crashes between the
// write and the rename — actually recovers.

// ErrInjectedCrash marks a simulated process death at an armed crash point.
// Retry policies deliberately do not retry it.
var ErrInjectedCrash = errors.New("resilience: injected crash")

// ErrInjectedFault is the default error of a FaultWriter.
var ErrInjectedFault = errors.New("resilience: injected write fault")

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

// FlakyWriter fails the first Failures writes with Err, then writes
// normally — the transient-I/O shape the retry policy exists for.
type FlakyWriter struct {
	W        io.Writer
	Failures int
	Err      error
}

func (f *FlakyWriter) Write(p []byte) (int, error) {
	if f.Failures > 0 {
		f.Failures--
		if f.Err != nil {
			return 0, f.Err
		}
		return 0, ErrInjectedFault
	}
	return f.W.Write(p)
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

// CrashPlan arms named crash points. Code under test calls Hit at its crash
// points; an armed point counts down and returns ErrInjectedCrash when it
// reaches zero, simulating the process dying right there. A nil *CrashPlan
// is inert, so production paths carry no conditionals beyond a nil check.
type CrashPlan struct {
	armed map[string]int
}

// Crash points honored by Store.Save.
const (
	CrashBeforeWrite  = "save:before-write"  // nothing on disk yet
	CrashDuringWrite  = "save:during-write"  // truncated temp file left behind
	CrashBeforeRename = "save:before-rename" // fully written temp, no rename
	CrashAfterRename  = "save:after-rename"  // renamed, rotation skipped
)

// Arm schedules point to crash on its countdown-th hit (1 = next hit).
func (c *CrashPlan) Arm(point string, countdown int) {
	if c.armed == nil {
		c.armed = make(map[string]int)
	}
	c.armed[point] = countdown
}

// Hit reports the crash error if point is armed and its countdown expires.
func (c *CrashPlan) Hit(point string) error {
	if c == nil || c.armed == nil {
		return nil
	}
	n, ok := c.armed[point]
	if !ok {
		return nil
	}
	n--
	if n > 0 {
		c.armed[point] = n
		return nil
	}
	delete(c.armed, point)
	return fmt.Errorf("%w at %s", ErrInjectedCrash, point)
}
