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

// fingerprint hashes the owning group's ID of stream rows 0…63.
func fingerprint(s *Snapshot) uint64 {
	h := fnv.New64a()
	for t := 0; t < 64; t++ {
		h.Write([]byte(s.Groups[s.Part2Group[t%s.Partitions]].ID))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Placement must be a pure function of the member-ID set: the golden
// fingerprints below were computed once and must hold in every process
// on every platform — this is what "same member set ⇒ identical
// placement across processes" rests on.
func TestPlacementGoldenFingerprint(t *testing.T) {
	golden := map[int]uint64{
		2: 0xa36c5a83913083a5,
		3: 0x6e0158c155f0f942,
		4: 0x3381da9bd9087465,
	}
	for n, want := range golden {
		var ids []string
		for i := 0; i < n; i++ {
			ids = append(ids, fmt.Sprintf("shard-%d", i))
		}
		s, err := BuildSnapshot(mkGroups(ids...), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(s); got != want {
			t.Errorf("n=%d fingerprint %#x, want golden %#x", n, got, want)
		}
	}
}

func TestPlacementOrderIndependent(t *testing.T) {
	a, err := BuildSnapshot(mkGroups("east", "west", "north"), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSnapshot(mkGroups("north", "east", "west"), 3)
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

// The stripe is exact: each group owns one partition, itself, and N
// stream rows give each group ⌊N/G⌋ or ⌈N/G⌉ of them.
func TestPlacementBalance(t *testing.T) {
	for n := 1; n <= 8; n++ {
		var ids []string
		for i := 0; i < n; i++ {
			ids = append(ids, fmt.Sprintf("shard-%d", i))
		}
		s, err := BuildSnapshot(mkGroups(ids...), 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.Partitions != n || len(s.Part2Group) != n {
			t.Fatalf("G=%d: %d partitions, %d mapped", n, s.Partitions, len(s.Part2Group))
		}
		for g := 0; g < n; g++ {
			if s.Part2Group[g] != g {
				t.Fatalf("G=%d: partition %d → group %d", n, g, s.Part2Group[g])
			}
			if owned := s.OwnedPartitions(g); len(owned) != 1 || owned[0] != g {
				t.Fatalf("G=%d: group %d owns %v", n, g, owned)
			}
		}
		for _, rows := range []int{0, 1, n - 1, n, n + 1, 1000, 1001} {
			counts := make([]int, n)
			for row := 0; row < rows; row++ {
				counts[s.Part2Group[row%s.Partitions]]++
			}
			for g, c := range counts {
				if c != rows/n && c != (rows+n-1)/n {
					t.Errorf("G=%d N=%d: group %d holds %d rows, want %d or %d", n, rows, g, c, rows/n, (rows+n-1)/n)
				}
			}
		}
	}
}

func TestBuildSnapshotErrors(t *testing.T) {
	if _, err := BuildSnapshot(nil, 0); err == nil {
		t.Error("no groups accepted")
	}
	if _, err := BuildSnapshot(mkGroups("a", "a"), 0); err == nil {
		t.Error("duplicate group id accepted")
	}
	if _, err := BuildSnapshot(mkGroups(""), 0); err == nil {
		t.Error("empty group id accepted")
	}
	if _, err := BuildSnapshot([]Group{{ID: "a"}}, 0); err == nil {
		t.Error("memberless group accepted")
	}
	many := make([]string, MaxGroups+1)
	for i := range many {
		many[i] = DefaultGroupID(i)
	}
	if _, err := BuildSnapshot(mkGroups(many...), 0); err == nil {
		t.Error("more than MaxGroups groups accepted")
	}
	for _, partitions := range []int{-1, 1, 2, 4, 64} {
		if _, err := BuildSnapshot(mkGroups("a", "b", "c"), partitions); err == nil || !strings.Contains(err.Error(), "one per group") {
			t.Errorf("%d partitions for 3 groups: err %v", partitions, err)
		}
	}
}

func TestFormatTopology(t *testing.T) {
	groups, err := ParseSpec("h1:9300|h1:9301,h2:9300")
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildSnapshot(groups, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FormatTopology(s), "stripe over 2 groups: shard-0[R=2] shard-1[R=1]"; got != want {
		t.Fatalf("FormatTopology = %q, want %q", got, want)
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
		{"a.b-c_9=h1:9300,..x=h2:9300", 2, []int{1, 1}, []string{"a.b-c_9", "..x"}},
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

// Two member sinks on one server share its dedup cursor (same actor ID,
// each with its own sequence from 1), so the second one's batches would
// be acknowledged as duplicates and dropped.
func TestParseSpecRefusesRepeatedAddress(t *testing.T) {
	for _, spec := range []string{
		"h1:9300,h1:9300",
		"h1:9300|h1:9300",
		"h1:9300|h2:9300,h3:9300|h2:9300",
		"a=h1:9300,b=http://h1:9300/",
		"http://h1:9300,h1:9300",
	} {
		if _, err := ParseSpec(spec); err == nil || !strings.Contains(err.Error(), "appears twice") {
			t.Errorf("ParseSpec(%q): err %v, want a repeated-address refusal", spec, err)
		}
	}
}

// A group ID names its spool subdirectory, so it must be one plain path
// element.
func TestParseSpecRefusesUnsafeGroupID(t *testing.T) {
	for _, spec := range []string{
		"../x=h1:9300",
		"..=h1:9300",
		".=h1:9300",
		"a/b=h1:9300",
		`a\b=h1:9300`,
		"a b=h1:9300",
		"/abs=h1:9300",
		"ok=h1:9300,x:y=h2:9300",
	} {
		if _, err := ParseSpec(spec); err == nil || !strings.Contains(err.Error(), "not a plain name") {
			t.Errorf("ParseSpec(%q): err %v, want a plain-name refusal", spec, err)
		}
	}
}
