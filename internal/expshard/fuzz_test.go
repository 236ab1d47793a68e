package expshard

import "testing"

// FuzzViewMap builds a stripe view from arbitrary bytes — the group
// count, then per-group rows/total/live, reused cyclically — and checks
// that the closed form and the bisection reference return the same
// (group, local, clamped) for every index. The offset and owner inputs
// are what the seeds carried when the placement had a partition map;
// they no longer steer anything.
func FuzzViewMap(f *testing.F) {
	f.Add(uint16(64), uint64(0), []byte{0, 1, 1, 0, 1}, []byte{100, 100, 1, 90, 90, 1})
	f.Add(uint16(3), uint64(7), []byte{2, 0, 1}, []byte{10, 12, 1, 0, 0, 1, 5, 9, 0})
	f.Add(uint16(1), uint64(0), []byte{0}, []byte{200, 255, 1})
	f.Add(uint16(1024), uint64(1023), []byte{0, 1, 2, 3}, []byte{50, 60, 1, 50, 50, 1, 0, 7, 1, 9, 9, 0})
	f.Add(uint16(1024), uint64(989), []byte{0}, []byte{48, 48, 0, 48, 48, 1})
	f.Fuzz(func(t *testing.T, parts uint16, _ uint64, _, shape []byte) {
		groups := int(parts)%MaxGroups + 1
		shapes := len(shape) / 3
		if shapes == 0 {
			return
		}
		stats := make([]GroupStat, groups)
		for g := range stats {
			s := shape[3*(g%shapes):]
			rows, extra := uint64(s[0]), uint64(s[1])
			stats[g] = GroupStat{Rows: rows, Total: rows + extra, Live: s[2]&1 == 1}
		}
		compareWithRef(t, stats)
	})
}
