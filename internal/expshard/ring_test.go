package expshard

import (
	"fmt"
	"hash/fnv"
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
		2: 0x3ced6f209eb9a13c,
		4: 0xf9732ac0ecfec274,
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

func TestPlacementBalance(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		var ids []string
		for i := 0; i < n; i++ {
			ids = append(ids, fmt.Sprintf("shard-%d", i))
		}
		s, err := BuildSnapshot(mkGroups(ids...), DefaultPartitions)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, n)
		for _, g := range s.Part2Group {
			counts[g]++
		}
		for gi, c := range counts {
			if c == 0 {
				t.Errorf("n=%d: group %d owns zero partitions", n, gi)
			}
			if c > 3*DefaultPartitions/n {
				t.Errorf("n=%d: group %d owns %d/%d partitions (>3x fair share)", n, gi, c, DefaultPartitions)
			}
		}
	}
}

// Consistent-hashing property: a join may only steal partitions (they
// move to the joiner), and a leave may only reassign the leaver's
// partitions — everything else stays put.
func TestRebalanceMovesOnlyAffectedPartitions(t *testing.T) {
	base := mkGroups("a", "b", "c")
	before, err := BuildSnapshot(base, 128)
	if err != nil {
		t.Fatal(err)
	}
	after, err := BuildSnapshot(mkGroups("a", "b", "c", "d"), 128)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for p := range before.Part2Group {
		idBefore := before.Groups[before.Part2Group[p]].ID
		idAfter := after.Groups[after.Part2Group[p]].ID
		if idBefore != idAfter {
			moved++
			if idAfter != "d" {
				t.Fatalf("join: partition %d moved %s→%s, not to the joiner", p, idBefore, idAfter)
			}
		}
	}
	if moved == 0 {
		t.Fatal("join moved no partitions to the joiner")
	}
	// Leave: rebuild without "b"; only b's partitions may change owner.
	left, err := BuildSnapshot(mkGroups("a", "c"), 128)
	if err != nil {
		t.Fatal(err)
	}
	for p := range before.Part2Group {
		idBefore := before.Groups[before.Part2Group[p]].ID
		idLeft := left.Groups[left.Part2Group[p]].ID
		if idBefore != "b" && idBefore != idLeft {
			t.Fatalf("leave: partition %d moved %s→%s though b left", p, idBefore, idLeft)
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
