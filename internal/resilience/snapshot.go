package resilience

import (
	"encoding/binary"
	"fmt"
	"io"

	"marlperf/internal/frame"
)

// Snapshot format: one file bundles every piece of run state that must stay
// mutually consistent (a training run's trainer checkpoint and replay
// buffer). Layout (little-endian):
//
//	magic "MSNP" | uint32 version | uint32 sectionCount |
//	per section: uint32 kind | uint64 payloadLen | payload |
//	             uint32 crc32(payload) |
//	uint32 crc32 of every preceding byte (whole-file trailer)
//
// Per-section CRCs localize corruption to the damaged section in error
// messages; the whole-file trailer catches truncation after the last
// section and damage to the framing itself. CRC32 is IEEE, matching the
// MARL/MARB trailers.

const (
	snapshotMagic   = "MSNP"
	snapshotVersion = 1

	// maxSectionLen bounds a single section (1 GiB) so a corrupt length
	// field cannot drive a huge allocation before the CRC check.
	maxSectionLen = 1 << 30
	maxSections   = 1 << 10
)

// SectionKind identifies what a snapshot section holds.
type SectionKind uint32

// Section kinds bundled by the training runtime. Kind 3 was a run-state
// section (an RNG continuation seed) that older snapshots still carry; a
// reader skips it like any other kind it does not know.
const (
	SectionTrainer SectionKind = 1 // MARL core checkpoint
	SectionReplay  SectionKind = 2 // MARB replay buffer
)

// String returns the kind's report name.
func (k SectionKind) String() string {
	switch k {
	case SectionTrainer:
		return "trainer"
	case SectionReplay:
		return "replay"
	default:
		return fmt.Sprintf("section(%d)", uint32(k))
	}
}

// Section is one CRC-protected payload inside a snapshot.
type Section struct {
	Kind    SectionKind
	Payload []byte
}

// Snapshot is a validated, fully decoded snapshot file.
type Snapshot struct {
	Sections []Section
}

// Section returns the payload of the first section of the given kind.
func (s *Snapshot) Section(kind SectionKind) ([]byte, bool) {
	for _, sec := range s.Sections {
		if sec.Kind == kind {
			return sec.Payload, true
		}
	}
	return nil, false
}

// WriteSnapshot serializes the sections with per-section and whole-file
// CRC32 trailers, built in one slice and written in one write.
func WriteSnapshot(w io.Writer, sections []Section) error {
	size := 16
	for _, sec := range sections {
		size += 16 + len(sec.Payload)
	}
	dst := frame.AppendHeader(make([]byte, 0, size), snapshotMagic, snapshotVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(sections)))
	for _, sec := range sections {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(sec.Kind))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(sec.Payload)))
		start := len(dst)
		dst = frame.Seal(append(dst, sec.Payload...), start)
	}
	_, err := w.Write(frame.Seal(dst, 0))
	return err
}

// ReadSnapshot decodes and validates a snapshot, rejecting truncated or
// bit-flipped input with an error naming the damaged part: each section's
// own checksum is checked as it is reached, the whole-file trailer last.
// The returned payloads share one buffer.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	d, err := frame.Read(r, snapshotMagic, snapshotVersion)
	if err != nil {
		return nil, fmt.Errorf("resilience: snapshot: %w", err)
	}
	count := d.U32()
	if d.Err() == nil && count > maxSections {
		d.Fail("implausible section count %d", count)
	}
	snap := &Snapshot{}
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		kind, length := SectionKind(d.U32()), d.U64()
		if d.Err() == nil && length > maxSectionLen {
			d.Fail("section %d (%v) implausibly large: %d bytes", i, kind, length)
		}
		raw := d.Bytes(int(length) + 4)
		if d.Err() != nil {
			break
		}
		payload, err := frame.Unseal(raw, "payload")
		if err != nil {
			d.Fail("section %d (%v): %w", i, kind, err)
		}
		snap.Sections = append(snap.Sections, Section{Kind: kind, Payload: payload})
	}
	d.Unseal()
	if d.Err() == nil && d.Len() != 0 {
		d.Fail("%d bytes after the last section", d.Len())
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("resilience: snapshot: %w", err)
	}
	return snap, nil
}
