package expshard

import (
	"fmt"
	"sort"
	"testing"
)

// FuzzRebuildMembership walks an arbitrary join/leave sequence, building
// each step's member set from scratch, and checks after every step that
//
//  1. every partition maps to a valid group;
//  2. the step moves only partitions owned by groups that joined or left
//     in it (consistent hashing).
func FuzzRebuildMembership(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x83, 0x01})
	f.Add([]byte{0x00})
	f.Add([]byte{0x05, 0x85, 0x05, 0x85, 0x05})
	f.Add([]byte{0x10, 0x11, 0x12, 0x13, 0x90, 0x91})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		present := map[string]bool{"seed": true}
		prev, err := BuildSnapshot(mkGroups("seed"), 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			id := fmt.Sprintf("g%02d", op&0x3f)
			join := op&0x80 == 0
			changed := map[string]bool{}
			if join && !present[id] {
				present[id] = true
				changed[id] = true
			} else if !join && present[id] && len(present) > 1 {
				delete(present, id)
				changed[id] = true
			}
			if len(changed) == 0 {
				continue
			}
			ids := make([]string, 0, len(present))
			for id := range present {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			snap, err := BuildSnapshot(mkGroups(ids...), 128)
			if err != nil {
				t.Fatal(err)
			}
			// (1) all partitions mapped.
			if len(snap.Part2Group) != snap.Partitions {
				t.Fatalf("part2group len %d != %d", len(snap.Part2Group), snap.Partitions)
			}
			for p, g := range snap.Part2Group {
				if g < 0 || g >= len(snap.Groups) {
					t.Fatalf("partition %d → invalid group %d", p, g)
				}
			}
			// (2) minimal movement: a partition may change owner only
			// if its old or new owner is in the changed set.
			for p := range snap.Part2Group {
				oldID := prev.Groups[prev.Part2Group[p]].ID
				newID := snap.Groups[snap.Part2Group[p]].ID
				if oldID != newID && !changed[oldID] && !changed[newID] {
					t.Fatalf("partition %d moved %s→%s; neither joined nor left (changed=%v)",
						p, oldID, newID, changed)
				}
			}
			prev = snap
		}
	})
}

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
