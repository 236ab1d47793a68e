// Package expshard implements the sharded, replicated replay fabric's
// placement layer: a consistent-hash ring that assigns time-striped
// partitions of the experience stream to N logical shard groups, each
// backed by R replica marl-replayd processes.
//
// The ring design (described inline — there is no external reference
// implementation in-tree):
//
//   - Each shard *group* is hashed onto a 64-bit circle at V virtual
//     points (vnodes) using FNV-1a over "groupID#k". Partition p's
//     point is a mixed hash of p; the partition is owned by the first
//     vnode clockwise. Virtual nodes keep ownership balanced, and the
//     consistent-hashing property holds: when a group joins or leaves,
//     only partitions adjacent to its vnodes change owner.
//   - The full replica→partition→shard mapping is materialized once
//     into an immutable Snapshot (Part2Group table plus per-group member
//     lists) that the sample/append hot paths read without a lock. A
//     fabric's topology is fixed for its lifetime: a membership change
//     is a restart with the new spec.
//   - The placement is a pure function of the *set* of group IDs (the
//     build sorts vnodes and resolves ties on the hash value by group
//     ID), so every process that knows the member set derives the
//     identical partition map — no coordination service required.
//
// Row placement is time-striped: the row with producer stream index t
// lands in partition (offset+t) mod Partitions. That makes the global
// index ↔ (group, local index) mapping closed-form arithmetic (see
// view.go), which is what lets a learner route each index of one draw to
// the shard holding it and get back the batch a single store would give.
package expshard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// DefaultPartitions is the default number of hash-ring partitions.
// It bounds placement skew (≤ 1/Partitions per stripe cycle) and is
// carried on the wire as a single byte per partition, so it must stay
// small; 64 keeps the per-request view under 200 bytes.
const DefaultPartitions = 64

// MaxPartitions bounds the wire encoding (one byte per partition slot).
const MaxPartitions = 1024

// MaxGroups bounds group indices to a byte on the wire.
const MaxGroups = 255

// vnodesPerGroup is the virtual-node count per shard group. 64 vnodes
// keeps the max/min partition-ownership ratio under ~2x for small N.
const vnodesPerGroup = 64

// Member is one replayd process backing a shard group.
type Member struct {
	// Addr is the host:port of the replayd HTTP endpoint.
	Addr string
}

// Group is a logical shard: R replica members holding identical copies
// of the group's sub-stream. Appends fan out to every member; reads
// prefer the first live member in order.
type Group struct {
	// ID names the group on the hash ring. Placement depends only on
	// the set of IDs, never on member addresses, so replacing a dead
	// replica does not move data.
	ID      string
	Members []Member
}

// Snapshot is an immutable view of the ring: the replica→partition→
// shard maps for one member set. Built once, then shared read-only.
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

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// mix64 is splitmix64's finalizer: spreads small integer partition
// indices uniformly over the circle.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type vnode struct {
	point uint64
	group int // index into the sorted-by-ID group slice
	gid   string
}

// BuildSnapshot computes the partition map for the given groups. The
// result is a pure function of the set of group IDs and the partition
// count: group order in the input does not matter (groups are sorted
// by ID), and no map iteration is involved, so two independent
// processes always derive byte-identical placement.
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

	vnodes := make([]vnode, 0, len(sorted)*vnodesPerGroup)
	for gi, g := range sorted {
		for k := 0; k < vnodesPerGroup; k++ {
			// FNV-1a alone clusters badly on short similar strings;
			// the splitmix finalizer spreads the arcs.
			pt := mix64(hash64(fmt.Sprintf("%s#%d", g.ID, k)))
			vnodes = append(vnodes, vnode{point: pt, group: gi, gid: g.ID})
		}
	}
	sort.Slice(vnodes, func(i, j int) bool {
		if vnodes[i].point != vnodes[j].point {
			return vnodes[i].point < vnodes[j].point
		}
		// Tie-break on group ID so equal hash points (vanishingly
		// rare, but possible) still resolve identically everywhere.
		return vnodes[i].gid < vnodes[j].gid
	})

	part2group := make([]int, partitions)
	for p := 0; p < partitions; p++ {
		pt := mix64(uint64(p))
		// First vnode clockwise from the partition's point.
		i := sort.Search(len(vnodes), func(i int) bool { return vnodes[i].point >= pt })
		if i == len(vnodes) {
			i = 0
		}
		part2group[p] = vnodes[i].group
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
