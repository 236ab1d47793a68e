package expshard

import "testing"

// FuzzViewMap builds a view from arbitrary bytes — partition count,
// offset, partition→group map, per-group rows/total/live — and checks
// that the prefix table and the binary-search reference return the same
// (group, local, clamped) for every index.
func FuzzViewMap(f *testing.F) {
	f.Add(uint16(64), uint64(0), []byte{0, 1, 1, 0, 1}, []byte{100, 100, 1, 90, 90, 1})
	f.Add(uint16(3), uint64(7), []byte{2, 0, 1}, []byte{10, 12, 1, 0, 0, 1, 5, 9, 0})
	f.Add(uint16(1), uint64(0), []byte{0}, []byte{200, 255, 1})
	f.Add(uint16(1024), uint64(1023), []byte{0, 1, 2, 3}, []byte{50, 60, 1, 50, 50, 1, 0, 7, 1, 9, 9, 0})
	f.Add(uint16(1024), uint64(989), []byte{0}, []byte{48, 48, 0, 48, 48, 1}) // the live group owns no partition
	f.Fuzz(func(t *testing.T, parts uint16, offset uint64, owners, shape []byte) {
		partitions := int(parts)%MaxPartitions + 1
		groups := len(shape) / 3
		if groups == 0 || len(owners) == 0 {
			return
		}
		if groups > 16 {
			groups = 16
		}
		p2g := make([]int, partitions)
		for p := range p2g {
			p2g[p] = int(owners[p%len(owners)]) % groups
		}
		stats := make([]GroupStat, groups)
		for g := range stats {
			rows, extra := uint64(shape[3*g]), uint64(shape[3*g+1])
			stats[g] = GroupStat{Rows: rows, Total: rows + extra, Live: shape[3*g+2]&1 == 1}
		}
		compareWithRef(t, partitions, offset, p2g, stats)
	})
}
