package expshard

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

func mkGroups(ids ...string) []Group {
	var gs []Group
	for _, id := range ids {
		gs = append(gs, Group{ID: id, Members: []Member{{Addr: "x"}}})
	}
	return gs
}

func fingerprint(s *Snapshot) uint64 {
	h := fnv.New64a()
	for _, g := range s.Part2Group {
		h.Write([]byte(s.Groups[g].ID))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Placement must be a pure function of the member-ID set: the golden
// fingerprints below were computed once and must hold in every process
// on every platform — this is what "same member set ⇒ identical
// partition map across processes" rests on.
func TestPlacementGoldenFingerprint(t *testing.T) {
	golden := map[int]uint64{
		2: 0xa36c5a83913083a5,
		4: 0x3381da9bd9087465,
	}
	for n, want := range golden {
		var ids []string
		for i := 0; i < n; i++ {
			ids = append(ids, fmt.Sprintf("shard-%d", i))
		}
		s, err := BuildSnapshot(mkGroups(ids...), 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(s); got != want {
			t.Errorf("n=%d fingerprint %#x, want golden %#x", n, got, want)
		}
	}
}

func TestPlacementOrderIndependent(t *testing.T) {
	a, err := BuildSnapshot(mkGroups("east", "west", "north"), 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSnapshot(mkGroups("north", "east", "west"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("group insertion order changed placement")
	}
	for i := range a.Groups {
		if a.Groups[i].ID != b.Groups[i].ID {
			t.Fatalf("group order differs at %d: %q vs %q", i, a.Groups[i].ID, b.Groups[i].ID)
		}
	}
}

// The stripe is exact: every partition maps to a valid group, and each
// group owns ⌊P/G⌋ or ⌈P/G⌉ of them.
func TestPlacementBalance(t *testing.T) {
	for _, partitions := range []int{DefaultPartitions, MaxPartitions} {
		for n := 1; n <= 8; n++ {
			var ids []string
			for i := 0; i < n; i++ {
				ids = append(ids, fmt.Sprintf("shard-%d", i))
			}
			s, err := BuildSnapshot(mkGroups(ids...), partitions)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Part2Group) != partitions || s.Partitions != partitions {
				t.Fatalf("P=%d n=%d: %d partitions mapped, snapshot says %d", partitions, n, len(s.Part2Group), s.Partitions)
			}
			counts := make([]int, n)
			for p, g := range s.Part2Group {
				if g < 0 || g >= n {
					t.Fatalf("P=%d n=%d: partition %d → invalid group %d", partitions, n, p, g)
				}
				counts[g]++
			}
			lo, hi := partitions/n, (partitions+n-1)/n
			for gi, c := range counts {
				if c < lo || c > hi {
					t.Errorf("P=%d n=%d: group %d owns %d partitions, want %d…%d", partitions, n, gi, c, lo, hi)
				}
			}
		}
	}
}

func TestBuildSnapshotErrors(t *testing.T) {
	if _, err := BuildSnapshot(nil, 64); err == nil {
		t.Error("no groups accepted")
	}
	if _, err := BuildSnapshot(mkGroups("a", "a"), 64); err == nil {
		t.Error("duplicate group id accepted")
	}
	if _, err := BuildSnapshot(mkGroups(""), 64); err == nil {
		t.Error("empty group id accepted")
	}
	if _, err := BuildSnapshot([]Group{{ID: "a"}}, 64); err == nil {
		t.Error("memberless group accepted")
	}
	if _, err := BuildSnapshot(mkGroups("a"), MaxPartitions+1); err == nil {
		t.Error("oversized partition count accepted")
	}
	if _, err := BuildSnapshot(mkGroups("a", "b", "c"), 2); err == nil || !strings.Contains(err.Error(), "3 groups exceeds 2 partitions") {
		t.Errorf("more groups than partitions: err %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		groups  int
		members []int
		ids     []string
	}{
		{"h1:9300", 1, []int{1}, []string{"shard-0"}},
		{"h1:9300,h2:9300", 2, []int{1, 1}, []string{"shard-0", "shard-1"}},
		{"h1:9300|h1:9301,h2:9300|h2:9301", 2, []int{2, 2}, []string{"shard-0", "shard-1"}},
		{"east=h1:9300|h2:9300,west=h3:9300", 2, []int{2, 1}, []string{"east", "west"}},
		{" h1:9300 , h2:9300 ", 2, []int{1, 1}, []string{"shard-0", "shard-1"}},
	}
	for _, c := range cases {
		gs, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatalf("%q: %v", c.spec, err)
		}
		if len(gs) != c.groups {
			t.Fatalf("%q: %d groups, want %d", c.spec, len(gs), c.groups)
		}
		for i, g := range gs {
			if len(g.Members) != c.members[i] {
				t.Errorf("%q group %d: %d members, want %d", c.spec, i, len(g.Members), c.members[i])
			}
			if g.ID != c.ids[i] {
				t.Errorf("%q group %d: id %q, want %q", c.spec, i, g.ID, c.ids[i])
			}
		}
	}
	for _, bad := range []string{"", ",", "a,", "|", "x=|", "=h1:9300"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}
