package expshard

import (
	"fmt"
	"slices"
)

// GroupStat is one shard group's contribution to a stream view: how
// many rows its (preferred live) member retains and how many it has
// ever appended. Trim = Total - Rows is the count of retired rows at
// the head of the group's sub-stream.
type GroupStat struct {
	Rows  uint64
	Total uint64
	Live  bool
}

// View is a frozen snapshot of the fabric's sampling state: per-group
// row counts over the stripe. The trainer builds one per update phase
// and maps every index of its draws through it, so each shard is asked
// for exactly the rows a single store holding the same stream would
// return — that is the determinism contract that makes a fabric draw
// bit-identical to a single store's.
//
// Placement model: the row with producer stream index t lives in group
// t mod G, G = len(Stats), at position t div G of the group's
// sub-stream; its local index is that position minus the group's trim.
// Both directions are closed-form arithmetic; the inverse (global sample
// index → t) needs a search only when trims or dead groups make the live
// stream non-contiguous, and past a wrapped ring's retired heads its
// first guess is right.
type View struct {
	Stats []GroupStat

	// Derived at construction.
	length   int64 // Σ live Rows
	balanced bool  // exact fast path: all live, no trims, stats match striping
	maxT     int64 // exclusive upper bound on live t values (general path)
	// trimmed is Σ(Total − Rows) when every group is live, else -1: past
	// the retired heads, global index i sits at stream index i + trimmed,
	// the general path's first guess.
	trimmed int64
}

// NewView validates and precomputes a view. partitions, offset and
// part2group must state the stripe over len(stats) groups, as
// Snapshot.Partitions and Snapshot.Part2Group do, with offset 0.
func NewView(partitions int, offset uint64, part2group []int, stats []GroupStat) (*View, error) {
	if partitions != len(stats) || offset != 0 || !slices.Equal(part2group, identity(partitions)) {
		return nil, fmt.Errorf("expshard: %d partitions, offset %d, part2group %v: want the stripe over %d groups", partitions, offset, part2group, len(stats))
	}
	return newView(stats)
}

func newView(stats []GroupStat) (*View, error) {
	if len(stats) == 0 || len(stats) > MaxGroups {
		return nil, fmt.Errorf("expshard: bad group count %d", len(stats))
	}
	v := &View{Stats: stats}
	allLive := true
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
		if tu := v.tUpper(g); tu > v.maxT {
			v.maxT = tu
		}
	}
	if !allLive {
		v.trimmed = -1
	}
	// Balanced: every group live and untrimmed, holding what a stream of
	// Len rows gives it.
	v.balanced = v.trimmed == 0
	for g, st := range stats {
		v.balanced = v.balanced && v.ownedCountBefore(v.length, g) == int64(st.Total)
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

// ownedCountBefore counts group g's stream indices t' < t, those with
// t' ≡ g (mod G).
func (v *View) ownedCountBefore(t int64, g int) int64 {
	if t <= 0 {
		return 0
	}
	return (t + int64(len(v.Stats)-1-g)) / int64(len(v.Stats))
}

// tUpper returns an exclusive upper bound on stream indices held by
// group g: the t of its (Total-1)-th row, plus one.
func (v *View) tUpper(g int) int64 {
	total := int64(v.Stats[g].Total)
	if total == 0 {
		return 0
	}
	return (total-1)*int64(len(v.Stats)) + int64(g) + 1
}

// rank counts live retained rows with stream index < t: ownedCountBefore
// for every live group, sharing its one division, clipped to what the
// group holds.
func (v *View) rank(t int64) int64 {
	if t <= 0 {
		return 0
	}
	q, r := t/int64(len(v.Stats)), int(t%int64(len(v.Stats)))
	var n int64
	for g, st := range v.Stats {
		if !st.Live {
			continue
		}
		c := q
		if g < r {
			c++
		}
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
		// Exact: the live stream is contiguous, t = i.
		groups := int64(len(v.Stats))
		return int(i % groups), i / groups, false
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
	groups := int64(len(v.Stats))
	g := int(t % groups)
	st := v.Stats[g]
	local = t/groups - (int64(st.Total) - int64(st.Rows))
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
	return newView(stats)
}
