// Package expshard implements the sharded, replicated replay fabric's
// placement layer: an arithmetic stripe of the experience stream over N
// logical shard groups, each backed by R replica marl-replayd processes.
//
//   - The row with producer stream index t goes to the (t mod N)-th
//     group in ID order, so every N consecutive rows give each group one
//     and any stream prefix gives each group ⌊T/N⌋ or ⌈T/N⌉ rows. The
//     placement is a pure function of the *set* of group IDs: every
//     process that knows the member set derives it, with no coordination
//     service.
//   - The groups and their member lists are materialized once into an
//     immutable Snapshot that the sample/append hot paths read without a
//     lock. A fabric's topology is fixed for its lifetime: a membership
//     change is a restart with the new spec.
//
// The stripe makes the global index ↔ (group, local index) mapping
// closed-form arithmetic (see view.go), which is what lets a learner
// route each index of one draw to the shard holding it and get back the
// batch a single store would give.
package expshard

import (
	"fmt"
	"sort"
	"strings"

	"marlperf/internal/netretry"
)

// MaxGroups bounds the shard group count.
const MaxGroups = 255

// Member is one replayd process backing a shard group.
type Member struct {
	// Addr is the host:port of the replayd HTTP endpoint.
	Addr string
}

// Group is a logical shard: R replica members holding identical copies
// of the group's sub-stream. Appends fan out to every member; reads
// prefer the first live member in order.
type Group struct {
	// ID names the group. Placement depends only on the set of IDs,
	// never on member addresses, so replacing a dead replica does not
	// move data.
	ID      string
	Members []Member
}

// Snapshot is an immutable view of the placement for one member set.
// Built once, then shared read-only.
type Snapshot struct {
	// Partitions and Part2Group state the stripe as a partition map:
	// one partition per group, Part2Group[p] = p, so row t goes to
	// group Part2Group[t mod Partitions].
	Partitions int
	Groups     []Group
	Part2Group []int
}

// MaxReplicas returns the widest replication factor across groups.
func (s *Snapshot) MaxReplicas() int {
	r := 0
	for _, g := range s.Groups {
		if len(g.Members) > r {
			r = len(g.Members)
		}
	}
	return r
}

// OwnedPartitions returns the partitions owned by group g: just g.
func (s *Snapshot) OwnedPartitions(g int) []int { return []int{g} }

// BuildSnapshot sorts the groups by ID; row t then belongs to the
// (t mod N)-th of them. The result is a pure function of the set of
// group IDs: group order in the input does not matter, so two
// independent processes always derive byte-identical placement.
// partitions must be 0 or len(groups): the stripe has one partition per
// group.
func BuildSnapshot(groups []Group, partitions int) (*Snapshot, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("expshard: no shard groups")
	}
	if len(groups) > MaxGroups {
		return nil, fmt.Errorf("expshard: %d groups exceeds max %d", len(groups), MaxGroups)
	}
	if partitions != 0 && partitions != len(groups) {
		return nil, fmt.Errorf("expshard: %d partitions for %d groups: the stripe has one per group", partitions, len(groups))
	}
	sorted := make([]Group, len(groups))
	copy(sorted, groups)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	seen := make(map[string]bool, len(sorted))
	for _, g := range sorted {
		if g.ID == "" {
			return nil, fmt.Errorf("expshard: empty group id")
		}
		if seen[g.ID] {
			return nil, fmt.Errorf("expshard: duplicate group id %q", g.ID)
		}
		seen[g.ID] = true
		if len(g.Members) == 0 {
			return nil, fmt.Errorf("expshard: group %q has no members", g.ID)
		}
	}
	return &Snapshot{Partitions: len(sorted), Groups: sorted, Part2Group: identity(len(sorted))}, nil
}

// identity returns [0, 1, …, n-1].
func identity(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// plainName reports whether id may name a group: the ID names the
// group's spool subdirectories, so it must stay one path element.
func plainName(id string) bool {
	for _, c := range id {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return id != "" && id != "." && id != ".."
}

// ParseSpec parses a fabric topology string: comma-separated shard
// groups, each a pipe-separated list of replica member addresses, with
// an optional "id=" group-name prefix:
//
//	"h1:9300"                               1 group, R=1 (degenerate)
//	"h1:9300,h2:9300"                       2 groups, R=1
//	"h1:9300|h1:9301,h2:9300|h2:9301"       2 groups, R=2
//	"east=h1:9300|h2:9300,west=h3:9300"     named groups
//
// Unnamed groups get stable IDs "shard-0", "shard-1", … by position.
// Naming groups explicitly keeps placement stable when the list is
// reordered or a replica address changes. An ID is a plain name
// ([A-Za-z0-9._-]+, neither "." nor ".."), and no address may appear
// twice: two member sinks on one server would share its dedup cursor,
// and one's batches would be dropped as the other's duplicates.
func ParseSpec(spec string) ([]Group, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("expshard: empty fabric spec")
	}
	var groups []Group
	seen := make(map[string]bool)
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("expshard: empty group at position %d", i)
		}
		id := DefaultGroupID(i)
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			id = strings.TrimSpace(part[:eq])
			part = part[eq+1:]
			if !plainName(id) {
				return nil, fmt.Errorf("expshard: group id %q at position %d is not a plain name", id, i)
			}
		}
		var members []Member
		for _, addr := range strings.Split(part, "|") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				return nil, fmt.Errorf("expshard: empty member address in group %q", id)
			}
			base := netretry.NormalizeBase(addr)
			if seen[base] {
				return nil, fmt.Errorf("expshard: member address %q appears twice", addr)
			}
			seen[base] = true
			members = append(members, Member{Addr: addr})
		}
		groups = append(groups, Group{ID: id, Members: members})
	}
	return groups, nil
}

// DefaultGroupID is the stable ID assigned to the i-th unnamed group.
func DefaultGroupID(i int) string { return fmt.Sprintf("shard-%d", i) }

// FormatTopology renders a one-line human summary of the snapshot.
func FormatTopology(s *Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stripe over %d groups:", len(s.Groups))
	for _, g := range s.Groups {
		fmt.Fprintf(&b, " %s[R=%d]", g.ID, len(g.Members))
	}
	return b.String()
}
