package expshard

import "fmt"

// GroupStat is one shard group's contribution to a stream view: how
// many rows its (preferred live) member retains and how many it has
// ever appended. Trim = Total - Rows is the count of retired rows at
// the head of the group's sub-stream.
type GroupStat struct {
	Rows  uint64
	Total uint64
	Live  bool
}

// View is a frozen snapshot of the fabric's sampling state: the
// placement function (partitions, stripe offset, partition→group map)
// plus per-group row counts. The trainer builds one per update phase
// and maps every index of its draws through it, so each shard is asked
// for exactly the rows a single store holding the same stream would
// return — that is the determinism contract that makes a fabric draw
// bit-identical to a single store's.
//
// Placement model: the row with producer stream index t lives in
// partition (Offset+t) mod Partitions, owned by Part2Group[p]. Within
// a group, rows appear in ascending t order, so the local index of row
// t is the count of owned t' < t minus the group's trim. Both
// directions are closed-form arithmetic; the inverse (global sample
// index → t) needs a search only when trims or dead groups make the live
// stream non-contiguous, and past a wrapped ring's retired heads its
// first guess is right.
type View struct {
	Partitions int
	Offset     uint64
	Part2Group []int
	Stats      []GroupStat

	// Derived at construction.
	//
	// before is the per-group prefix table over residues a=(p-Offset) mod P
	// of owned partitions p: before[g·(P+1)+r] is how many of group g's
	// residues are below r, for r in [0, P], so the last entry of a group's
	// row is how many partitions it owns. It makes ownedCountBefore two
	// loads, where a search over the sorted residues cost a bisection per
	// call — 1024 times per draw.
	before   []int32
	length   int64 // Σ live Rows
	balanced bool  // exact fast path: all live, no trims, stats match striping
	maxT     int64 // exclusive upper bound on live t values (general path)
	// trimmed is Σ(Total − Rows) when every group is live, else -1: past
	// the retired heads, global index i sits at stream index i + trimmed,
	// the general path's first guess.
	trimmed int64
}

// NewView validates and precomputes a view. It is deterministic: the
// same inputs yield the same mapping in every process.
func NewView(partitions int, offset uint64, part2group []int, stats []GroupStat) (*View, error) {
	if partitions <= 0 || partitions > MaxPartitions {
		return nil, fmt.Errorf("expshard: bad partition count %d", partitions)
	}
	if len(part2group) != partitions {
		return nil, fmt.Errorf("expshard: part2group len %d != partitions %d", len(part2group), partitions)
	}
	if len(stats) == 0 || len(stats) > MaxGroups {
		return nil, fmt.Errorf("expshard: bad group count %d", len(stats))
	}
	v := &View{
		Partitions: partitions,
		Offset:     offset % uint64(partitions),
		Part2Group: part2group,
		Stats:      stats,
	}
	row := partitions + 1
	v.before = make([]int32, len(stats)*row)
	for p, g := range part2group {
		if g < 0 || g >= len(stats) {
			return nil, fmt.Errorf("expshard: partition %d maps to invalid group %d", p, g)
		}
		a := (p - int(v.Offset) + partitions) % partitions
		v.before[g*row+a+1] = 1
	}
	for g := range stats {
		counts := v.before[g*row : (g+1)*row]
		for r := 1; r < row; r++ {
			counts[r] += counts[r-1]
		}
	}
	allLive, trimsZero := true, true
	for g, st := range stats {
		if st.Rows > st.Total {
			return nil, fmt.Errorf("expshard: group %d rows %d > total %d", g, st.Rows, st.Total)
		}
		if !st.Live {
			allLive = false
			continue
		}
		v.length += int64(st.Rows)
		v.trimmed += int64(st.Total - st.Rows)
		if st.Rows != st.Total {
			trimsZero = false
		}
		if tu := v.tUpper(g); tu > v.maxT {
			v.maxT = tu
		}
	}
	if !allLive {
		v.trimmed = -1
	}
	if allLive && trimsZero {
		v.balanced = true
		for g, st := range stats {
			if v.ownedCountBefore(v.length, g) != int64(st.Total) {
				v.balanced = false
				break
			}
		}
	}
	return v, nil
}

// Len returns the number of live sampleable rows: the length argument
// a fabric draw passes to SamplePlan.FillIndices.
func (v *View) Len() int64 { return v.length }

// NumLive returns how many groups are marked live.
func (v *View) NumLive() int {
	n := 0
	for _, st := range v.Stats {
		if st.Live {
			n++
		}
	}
	return n
}

// residuesBelow returns group g's row of the prefix table: entry r counts
// its owned residues below r, entry Partitions all of them.
func (v *View) residuesBelow(g int) []int32 {
	row := v.Partitions + 1
	return v.before[g*row : (g+1)*row]
}

// ownedCountBefore counts owned stream indices t' < t for group g:
// t' ≡ a (mod P) for each owned residue a. Closed form: q full stripe
// cycles contribute q·k, plus the residues below t mod P.
func (v *View) ownedCountBefore(t int64, g int) int64 {
	if t <= 0 {
		return 0
	}
	below := v.residuesBelow(g)
	p := int64(v.Partitions)
	return t/p*int64(below[p]) + int64(below[t%p])
}

// tUpper returns an exclusive upper bound on stream indices held by
// group g: the t of its (Total-1)-th owned slot, plus one.
func (v *View) tUpper(g int) int64 {
	total := int64(v.Stats[g].Total)
	below := v.residuesBelow(g)
	k := int64(below[v.Partitions])
	if total == 0 || k == 0 {
		return 0
	}
	q, r := (total-1)/k, int32((total-1)%k)
	// The r-th owned residue is the first one with r+1 residues below its
	// successor. Once per live group per view: a scan is enough.
	a := 0
	for below[a+1] <= r {
		a++
	}
	return q*int64(v.Partitions) + int64(a) + 1
}

// rank counts live retained rows with stream index < t: ownedCountBefore
// for every live group, sharing its one division, clipped to what the
// group holds.
func (v *View) rank(t int64) int64 {
	if t <= 0 {
		return 0
	}
	p := int64(v.Partitions)
	q, r := t/p, t%p
	var n int64
	for g, st := range v.Stats {
		if !st.Live {
			continue
		}
		below := v.residuesBelow(g)
		c := q*int64(below[p]) + int64(below[r])
		if tot := int64(st.Total); c > tot {
			c = tot
		}
		c -= int64(st.Total) - int64(st.Rows) // subtract trim
		if c > 0 {
			n += c
		}
	}
	return n
}

// Map resolves global sample index i (0 ≤ i < Len()) to the owning
// group and the row's local index on that group's live member.
// Clamped reports that striped-placement arithmetic overshot the
// group's actual row count (multi-producer rounding or a restarted
// producer counter) and the local index was wrapped mod Rows — a
// documented approximation outside the balanced regime.
func (v *View) Map(i int64) (group int, local int64, clamped bool) {
	if v.balanced {
		// Exact: the live stream is contiguous, t = i. One division gives
		// the stripe cycle and the residue; the partition is the residue
		// shifted by the offset, and both are below Partitions.
		parts := int64(v.Partitions)
		q, r := i/parts, i%parts
		p := int64(v.Offset) + r
		if p >= parts {
			p -= parts
		}
		g := v.Part2Group[p]
		below := v.residuesBelow(g)
		return g, q*int64(below[parts]) + int64(below[r]), false
	}
	// General path: the smallest t whose cumulative live retained count
	// reaches i+1; that t is live-owned by construction. A guess t with
	// rank(t) = i and rank(t+1) = i+1 is that t (rank never decreases), so
	// it is exactly what the binary search below would find; past the
	// retired heads of a wrapped ring, i + trimmed is such a t.
	if t := i + v.trimmed; v.trimmed >= 0 && v.rank(t) == i && v.rank(t+1) == i+1 {
		return v.at(t)
	}
	lo, hi := int64(0), v.maxT
	for lo < hi {
		mid := lo + (hi-lo)/2
		if v.rank(mid+1) >= i+1 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return v.at(lo)
}

// at resolves live-owned stream index t to its group and local index,
// clamping as Map documents.
func (v *View) at(t int64) (group int, local int64, clamped bool) {
	p := (int64(v.Offset) + t) % int64(v.Partitions)
	g := v.Part2Group[p]
	st := v.Stats[g]
	local = v.ownedCountBefore(t, g) - (int64(st.Total) - int64(st.Rows))
	if local < 0 {
		local, clamped = 0, true
	}
	if rows := int64(st.Rows); local >= rows && rows > 0 {
		local, clamped = local%rows, true
	}
	return g, local, clamped
}

// WithDead returns a copy of the view with group g marked dead, for
// the skip-and-reweight degraded-read path: the caller recomputes its
// draw over the shrunken Len so the remaining groups' rows reweight
// to a full batch. Derived state is rebuilt.
func (v *View) WithDead(g int) (*View, error) {
	if g < 0 || g >= len(v.Stats) {
		return nil, fmt.Errorf("expshard: invalid group %d", g)
	}
	stats := make([]GroupStat, len(v.Stats))
	copy(stats, v.Stats)
	stats[g].Live = false
	return NewView(v.Partitions, v.Offset, v.Part2Group, stats)
}
