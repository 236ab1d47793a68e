package resilience

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadSnapshot hardens the snapshot parser: arbitrary bytes either
// decode to sections that re-encode to the bytes read, or fail with an
// error — never a panic, never an allocation a length field alone demands.
// Seeded from the golden snapshot (a real trainer, buffer and run state).
func FuzzReadSnapshot(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "snap-golden.msnp"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte{})
	f.Add([]byte(snapshotMagic))
	// A section claiming a payload past maxSectionLen must be refused from
	// its length field.
	huge := append([]byte(snapshotMagic), 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)
	huge = binary.LittleEndian.AppendUint64(huge, 1<<40)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteSnapshot(&again, snap.Sections); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatal("an accepted snapshot re-encodes to other bytes")
		}
	})
}
