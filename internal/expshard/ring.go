// Package expshard implements the sharded, replicated replay fabric's
// placement layer: an arithmetic stripe that assigns the time-striped
// partitions of the experience stream to N logical shard groups, each
// backed by R replica marl-replayd processes.
//
//   - Partition p belongs to group p mod N, counting groups in ID order,
//     so every group owns ⌊P/N⌋ or ⌈P/N⌉ of the P partitions. The map is
//     a pure function of the *set* of group IDs and P: every process that
//     knows the member set derives the identical partition map, with no
//     coordination service.
//   - The full replica→partition→shard mapping is materialized once
//     into an immutable Snapshot (Part2Group table plus per-group member
//     lists) that the sample/append hot paths read without a lock. A
//     fabric's topology is fixed for its lifetime: a membership change
//     is a restart with the new spec.
//
// Row placement is time-striped: the row with producer stream index t
// lands in partition (offset+t) mod Partitions. That makes the global
// index ↔ (group, local index) mapping closed-form arithmetic (see
// view.go), which is what lets a learner route each index of one draw to
// the shard holding it and get back the batch a single store would give.
package expshard

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultPartitions is the partition count every fabric uses. Groups'
// shares of it differ by at most one partition.
const DefaultPartitions = 64

// MaxPartitions bounds a view's per-group prefix table (MaxGroups ×
// (MaxPartitions+1) entries).
const MaxPartitions = 1024

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

// Snapshot is an immutable view of the placement: the replica→
// partition→shard maps for one member set. Built once, then shared
// read-only.
type Snapshot struct {
	Partitions int
	Groups     []Group
	// Part2Group maps partition index → index into Groups.
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

// OwnedPartitions returns the sorted partition indices owned by group g.
func (s *Snapshot) OwnedPartitions(g int) []int {
	var owned []int
	for p, og := range s.Part2Group {
		if og == g {
			owned = append(owned, p)
		}
	}
	return owned
}

// BuildSnapshot computes the partition map for the given groups:
// partition p belongs to the (p mod N)-th group in ID order. The result
// is a pure function of the set of group IDs and the partition count
// (0 means DefaultPartitions): group order in the input does not matter,
// so two independent processes always derive byte-identical placement.
// More groups than partitions is an error, since a group past the last
// partition would never receive a row.
func BuildSnapshot(groups []Group, partitions int) (*Snapshot, error) {
	if partitions <= 0 {
		partitions = DefaultPartitions
	}
	if partitions > MaxPartitions {
		return nil, fmt.Errorf("expshard: %d partitions exceeds max %d", partitions, MaxPartitions)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("expshard: no shard groups")
	}
	if len(groups) > MaxGroups {
		return nil, fmt.Errorf("expshard: %d groups exceeds max %d", len(groups), MaxGroups)
	}
	if len(groups) > partitions {
		return nil, fmt.Errorf("expshard: %d groups exceeds %d partitions", len(groups), partitions)
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

	part2group := make([]int, partitions)
	for p := range part2group {
		part2group[p] = p % len(sorted)
	}
	return &Snapshot{Partitions: partitions, Groups: sorted, Part2Group: part2group}, nil
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
// reordered or a replica address changes.
// DefaultGroupID is the stable ID assigned to the i-th unnamed group.
func DefaultGroupID(i int) string { return fmt.Sprintf("shard-%d", i) }

func ParseSpec(spec string) ([]Group, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("expshard: empty fabric spec")
	}
	var groups []Group
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("expshard: empty group at position %d", i)
		}
		id := DefaultGroupID(i)
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			id = strings.TrimSpace(part[:eq])
			part = part[eq+1:]
			if id == "" {
				return nil, fmt.Errorf("expshard: empty group id at position %d", i)
			}
		}
		var members []Member
		for _, addr := range strings.Split(part, "|") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				return nil, fmt.Errorf("expshard: empty member address in group %q", id)
			}
			members = append(members, Member{Addr: addr})
		}
		groups = append(groups, Group{ID: id, Members: members})
	}
	return groups, nil
}

// FormatTopology renders a one-line human summary of the snapshot.
func FormatTopology(s *Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ring: %d partitions over %d groups:", s.Partitions, len(s.Groups))
	for gi, g := range s.Groups {
		owned := 0
		for _, og := range s.Part2Group {
			if og == gi {
				owned++
			}
		}
		fmt.Fprintf(&b, " %s[R=%d,parts=%d]", g.ID, len(g.Members), owned)
	}
	return b.String()
}
