package expshard

import (
	"math/rand"
	"sort"
	"testing"
)

// simGroup brute-force-simulates one group's store: the stream indices
// it holds, in arrival order, after trimming.
type simGroup struct {
	ts   []int64 // retained stream indices, ascending
	trim int64
}

// simulate streams T rows through the stripe (row t to group t mod G,
// G = len(trims)) and applies per-group trims, returning the per-group
// retained substreams plus the flat (t, group, local) triples of all live
// retained rows in ascending t order — exactly what Map must reproduce.
func simulate(T int64, trims []int64, live []bool) ([]GroupStat, []simGroup, [][3]int64) {
	groups := len(trims)
	sims := make([]simGroup, groups)
	totals := make([]int64, groups)
	for t := int64(0); t < T; t++ {
		g := t % int64(groups)
		sims[g].ts = append(sims[g].ts, t)
		totals[g]++
	}
	stats := make([]GroupStat, groups)
	var flat [][3]int64
	for g := range sims {
		sims[g].trim = trims[g]
		sims[g].ts = sims[g].ts[trims[g]:]
		stats[g] = GroupStat{Rows: uint64(len(sims[g].ts)), Total: uint64(totals[g]), Live: live[g]}
	}
	// Live retained rows in ascending t order, with their local index.
	type row struct{ t, g, local int64 }
	var rows []row
	for g := range sims {
		if !live[g] {
			continue
		}
		for i, t := range sims[g].ts {
			rows = append(rows, row{t, int64(g), int64(i)})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].t < rows[j].t })
	for _, r := range rows {
		flat = append(flat, [3]int64{r.t, r.g, r.local})
	}
	return stats, sims, flat
}

// stripeView builds the view of stats over the stripe, the arguments a
// fabric passes from its Snapshot.
func stripeView(t testing.TB, stats []GroupStat) *View {
	t.Helper()
	v, err := NewView(len(stats), 0, identity(len(stats)), stats)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func checkViewAgainstSim(t *testing.T, stats []GroupStat, flat [][3]int64, wantBalanced bool) {
	t.Helper()
	v := stripeView(t, stats)
	if v.Len() != int64(len(flat)) {
		t.Fatalf("Len()=%d, sim has %d live rows", v.Len(), len(flat))
	}
	if v.balanced != wantBalanced {
		t.Fatalf("balanced=%v, want %v", v.balanced, wantBalanced)
	}
	for i, want := range flat {
		g, local, clamped := v.Map(int64(i))
		if clamped {
			t.Fatalf("Map(%d) clamped on consistent stats", i)
		}
		if int64(g) != want[1] || local != want[2] {
			t.Fatalf("Map(%d) = (g=%d, local=%d), sim says (g=%d, local=%d) for t=%d",
				i, g, local, want[1], want[2], want[0])
		}
	}
}

func allLive(n int) []bool {
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	return live
}

func TestViewMapBalanced(t *testing.T) {
	for n := 1; n <= 8; n++ {
		stats, _, flat := simulate(229, make([]int64, n), allLive(n))
		checkViewAgainstSim(t, stats, flat, true)
	}
}

func TestViewMapWithTrims(t *testing.T) {
	stats, _, flat := simulate(300, []int64{5, 0, 11}, allLive(3))
	checkViewAgainstSim(t, stats, flat, false)
}

func TestViewMapWithDeadGroup(t *testing.T) {
	stats, _, flat := simulate(500, make([]int64, 4), []bool{true, false, true, true})
	checkViewAgainstSim(t, stats, flat, false)
}

func TestViewMapTrimsAndDead(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(8)
		T := int64(50 + rng.Intn(400))
		trims := make([]int64, n)
		live := make([]bool, n)
		anyLive := false
		for g := 0; g < n; g++ {
			live[g] = rng.Intn(4) != 0
			anyLive = anyLive || live[g]
			// Never past the group's total, which would make the sim
			// slice out of range.
			trims[g] = min(int64(rng.Intn(10)), (T-int64(g)+int64(n)-1)/int64(n))
		}
		if !anyLive {
			live[0] = true
		}
		allOn, allZero := true, true
		for g := 0; g < n; g++ {
			allOn = allOn && live[g]
			allZero = allZero && trims[g] == 0
		}
		stats, _, flat := simulate(T, trims, live)
		if len(flat) == 0 {
			continue
		}
		checkViewAgainstSim(t, stats, flat, allOn && allZero)
	}
}

// Inconsistent stats (rows not matching striped placement — e.g. a
// producer whose counter restarted) must degrade to clamping, never
// out-of-range locals or panics.
func TestViewMapClampsOnPlacementMismatch(t *testing.T) {
	stats := []GroupStat{
		{Rows: 100, Total: 100, Live: true},
		{Rows: 3, Total: 3, Live: true}, // far fewer than striping implies
	}
	v := stripeView(t, stats)
	if v.balanced {
		t.Fatal("mismatched stats reported balanced")
	}
	for i := int64(0); i < v.Len(); i++ {
		g, local, _ := v.Map(i)
		if local < 0 || local >= int64(stats[g].Rows) {
			t.Fatalf("Map(%d): local %d out of range for group %d (rows %d)", i, local, g, stats[g].Rows)
		}
	}
}

func TestViewWithDead(t *testing.T) {
	stats, _, _ := simulate(200, make([]int64, 3), allLive(3))
	v := stripeView(t, stats)
	dead, err := v.WithDead(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := v.Len() - int64(stats[1].Rows); dead.Len() != want {
		t.Fatalf("WithDead Len %d, want %d", dead.Len(), want)
	}
	if dead.NumLive() != 2 {
		t.Fatalf("NumLive %d", dead.NumLive())
	}
	// All indices must now resolve to live groups only.
	for i := int64(0); i < dead.Len(); i++ {
		g, _, _ := dead.Map(i)
		if g == 1 {
			t.Fatalf("Map(%d) resolved to dead group", i)
		}
	}
	if _, err := v.WithDead(3); err == nil {
		t.Error("WithDead of a group past the last accepted")
	}
}

// NewView takes only the stripe over len(stats) groups: the partition
// count, offset and partition→group map a Snapshot states for it.
func TestViewErrors(t *testing.T) {
	good := []GroupStat{{Rows: 1, Total: 1, Live: true}, {Rows: 1, Total: 1, Live: true}}
	for _, c := range []struct {
		name       string
		partitions int
		offset     uint64
		part2group []int
		stats      []GroupStat
	}{
		{"zero partitions", 0, 0, nil, good},
		{"more partitions than groups", 64, 0, identity(64), good},
		{"fewer partitions than groups", 1, 0, identity(1), good},
		{"nonzero offset", 2, 1, identity(2), good},
		{"offset of a whole stripe", 2, 2, identity(2), good},
		{"short part2group", 2, 0, identity(1), good},
		{"long part2group", 2, 0, identity(3), good},
		{"swapped part2group", 2, 0, []int{1, 0}, good},
		{"out-of-range group", 2, 0, []int{0, 9}, good},
		{"no groups", 0, 0, nil, nil},
		{"too many groups", MaxGroups + 1, 0, identity(MaxGroups + 1), make([]GroupStat, MaxGroups+1)},
		{"rows > total", 2, 0, identity(2), []GroupStat{{Rows: 5, Total: 3, Live: true}, {Rows: 1, Total: 1, Live: true}}},
	} {
		if _, err := NewView(c.partitions, c.offset, c.part2group, c.stats); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := NewView(2, 0, identity(2), good); err != nil {
		t.Errorf("the stripe refused: %v", err)
	}
}

// refView maps the way the view did before the closed form: per group,
// the sorted residues of the partitions it owns (the stripe gives each
// one partition, itself), and a binary search over them on every count.
// The closed form is tested against it.
type refView struct {
	stats    []GroupStat
	owned    [][]int64
	length   int64
	balanced bool
	maxT     int64
}

func newRefView(stats []GroupStat) *refView {
	v := &refView{stats: stats}
	v.owned = make([][]int64, len(stats))
	for p := range stats {
		v.owned[p] = append(v.owned[p], int64(p))
	}
	allOn, trimsZero := true, true
	for g, st := range stats {
		if !st.Live {
			allOn = false
			continue
		}
		v.length += int64(st.Rows)
		if st.Rows != st.Total {
			trimsZero = false
		}
		if tu := v.tUpper(g); tu > v.maxT {
			v.maxT = tu
		}
	}
	if allOn && trimsZero {
		v.balanced = true
		for g, st := range stats {
			if v.ownedCountBefore(v.length, g) != int64(st.Total) {
				v.balanced = false
				break
			}
		}
	}
	return v
}

func (v *refView) ownedCountBefore(t int64, g int) int64 {
	if t <= 0 {
		return 0
	}
	res := v.owned[g]
	p := int64(len(v.stats))
	q, r := t/p, t%p
	lo, hi := 0, len(res)
	for lo < hi {
		mid := (lo + hi) / 2
		if res[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return q*int64(len(res)) + int64(lo)
}

func (v *refView) tUpper(g int) int64 {
	total := int64(v.stats[g].Total)
	if total == 0 {
		return 0
	}
	k := int64(len(v.owned[g]))
	q, r := (total-1)/k, (total-1)%k
	return q*int64(len(v.stats)) + v.owned[g][r] + 1
}

func (v *refView) rank(t int64) int64 {
	var n int64
	for g, st := range v.stats {
		if !st.Live {
			continue
		}
		c := v.ownedCountBefore(t, g)
		if tot := int64(st.Total); c > tot {
			c = tot
		}
		c -= int64(st.Total) - int64(st.Rows)
		if c > 0 {
			n += c
		}
	}
	return n
}

func (v *refView) Map(i int64) (group int, local int64, clamped bool) {
	if v.balanced {
		g := int(i % int64(len(v.stats)))
		return g, v.ownedCountBefore(i, g), false
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
	t := lo
	g := int(t % int64(len(v.stats)))
	st := v.stats[g]
	local = v.ownedCountBefore(t, g) - (int64(st.Total) - int64(st.Rows))
	if local < 0 {
		local, clamped = 0, true
	}
	if rows := int64(st.Rows); local >= rows && rows > 0 {
		local, clamped = local%rows, true
	}
	return g, local, clamped
}

// compareWithRef checks the view against the reference: the derived
// state, every count the general path can ask for, and Map over the
// whole index range (every index when it is short, a stride otherwise).
func compareWithRef(t testing.TB, stats []GroupStat) {
	t.Helper()
	v := stripeView(t, stats)
	ref := newRefView(stats)
	G := int64(len(stats))
	if v.Len() != ref.length || v.balanced != ref.balanced || v.maxT != ref.maxT {
		t.Fatalf("G=%d: view (len %d, balanced %v, maxT %d), reference (len %d, balanced %v, maxT %d)",
			G, v.Len(), v.balanced, v.maxT, ref.length, ref.balanced, ref.maxT)
	}
	for g := range stats {
		for _, tt := range []int64{-1, 0, 1, G - 1, G, G + 1, 3*G + 2, ref.maxT} {
			if got, want := v.ownedCountBefore(tt, g), ref.ownedCountBefore(tt, g); got != want {
				t.Fatalf("G=%d: ownedCountBefore(%d, %d) = %d, reference %d", G, tt, g, got, want)
			}
		}
	}
	step := int64(1)
	if v.Len() > 4096 {
		step = v.Len()/4096 + 1
	}
	for i := int64(0); i < v.Len(); i += step {
		g, local, clamped := v.Map(i)
		rg, rlocal, rclamped := ref.Map(i)
		if g != rg || local != rlocal || clamped != rclamped {
			t.Fatalf("G=%d stats=%v: Map(%d) = (%d, %d, %v), reference (%d, %d, %v)",
				G, stats, i, g, local, clamped, rg, rlocal, rclamped)
		}
	}
	if n := v.Len(); n > 0 {
		g, local, clamped := v.Map(n - 1)
		rg, rlocal, rclamped := ref.Map(n - 1)
		if g != rg || local != rlocal || clamped != rclamped {
			t.Fatalf("G=%d: Map(last) = (%d, %d, %v), reference (%d, %d, %v)", G, g, local, clamped, rg, rlocal, rclamped)
		}
	}
}

// striped returns the per-group totals of a stream of rows striped over
// the given number of groups.
func striped(groups int, rows int64) []uint64 {
	totals := make([]uint64, groups)
	for g := range totals {
		totals[g] = uint64(rows / int64(groups))
		if int64(g) < rows%int64(groups) {
			totals[g]++
		}
	}
	return totals
}

// The closed form must agree with the residue bisection on every group
// count from 1 to 8 and every shape of stats: balanced streams, trims,
// dead groups and totals that contradict the striping.
func TestViewTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for groups := 1; groups <= 8; groups++ {
		for trial := 0; trial < 4; trial++ {
			rows := int64(rng.Intn(5 * 64 * groups))
			totals := striped(groups, rows)

			balanced := make([]GroupStat, groups)
			trimmed := make([]GroupStat, groups)
			dead := make([]GroupStat, groups)
			skewed := make([]GroupStat, groups)
			for g, tot := range totals {
				balanced[g] = GroupStat{Rows: tot, Total: tot, Live: true}
				trimmed[g] = GroupStat{Rows: tot - uint64(rng.Int63n(int64(tot)+1)), Total: tot, Live: true}
				dead[g] = GroupStat{Rows: trimmed[g].Rows, Total: tot, Live: g != groups-1 || groups == 1}
				skew := uint64(rng.Intn(40))
				skewed[g] = GroupStat{Rows: skew, Total: skew + uint64(rng.Intn(3)), Live: rng.Intn(5) != 0}
			}
			for _, stats := range [][]GroupStat{balanced, trimmed, dead, skewed} {
				compareWithRef(t, stats)
			}
		}
	}
}

func TestViewBalancedStripingIsBalanced(t *testing.T) {
	for groups := 1; groups <= 8; groups++ {
		totals := striped(groups, 131071)
		stats := make([]GroupStat, groups)
		for g, tot := range totals {
			stats[g] = GroupStat{Rows: tot, Total: tot, Live: true}
		}
		if !stripeView(t, stats).balanced {
			t.Fatalf("G=%d: a striped stream's view is not balanced", groups)
		}
		compareWithRef(t, stats)
	}
}

// The general path's guessed first probe must answer what the bisection
// answers, on every index: wrapped rings of one capacity, whose retired
// heads end within a stripe of each other (the guess answers most indices
// and misses near the seams); wrapped rings with windows far apart (it
// answers few); the first with a group dead (it is never taken); and a live
// view whose totals contradict the striping (clamped answers).
func TestViewMapGuessMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 40; trial++ {
		groups := 2 + rng.Intn(7)
		rows := int64(5000 + rng.Intn(20000))
		totals := striped(groups, rows)
		capacity := uint64(rows) / uint64(2*groups)
		wrapped := make([]GroupStat, groups)
		uneven := make([]GroupStat, groups)
		for g, tot := range totals {
			wrapped[g] = GroupStat{Rows: min(tot, capacity), Total: tot, Live: true}
			uneven[g] = GroupStat{Rows: min(tot, uint64(500+rng.Intn(2000))), Total: tot, Live: true}
		}
		dead := append([]GroupStat(nil), wrapped...)
		dead[rng.Intn(groups)].Live = false
		skewed := append([]GroupStat(nil), wrapped...)
		skewed[0].Total += uint64(1 + rng.Intn(50))
		for name, stats := range map[string][]GroupStat{"wrapped": wrapped, "uneven": uneven, "dead": dead, "skewed": skewed} {
			v := stripeView(t, stats)
			ref := newRefView(stats)
			guessed := int64(0)
			for i := int64(0); i < v.Len(); i++ {
				g, local, clamped := v.Map(i)
				rg, rlocal, rclamped := ref.Map(i)
				if g != rg || local != rlocal || clamped != rclamped {
					t.Fatalf("trial %d %s G=%d stats=%v: Map(%d) = (%d, %d, %v), bisection (%d, %d, %v)",
						trial, name, groups, stats, i, g, local, clamped, rg, rlocal, rclamped)
				}
				if tt := i + v.trimmed; v.trimmed >= 0 && v.rank(tt) == i && v.rank(tt+1) == i+1 {
					guessed++
				}
			}
			if name == "wrapped" && 2*guessed < v.Len() {
				t.Fatalf("trial %d: the guess answered %d of %d indices of a wrapped view", trial, guessed, v.Len())
			}
			if name == "dead" && guessed != 0 {
				t.Fatalf("trial %d: a view with a dead group took the guess %d times", trial, guessed)
			}
		}
	}
}

var sinkLocal int64

// BenchmarkViewMap is the floor under expshard.view_map_ns: Map over a
// balanced two-group view of 131 072 rows (fabric-sample's) and over the
// same view with one group trimmed (the general path a wrapped ring takes).
func BenchmarkViewMap(b *testing.B) {
	totals := striped(2, 131072)
	shapes := map[string][]GroupStat{
		"balanced": {{Rows: totals[0], Total: totals[0], Live: true}, {Rows: totals[1], Total: totals[1], Live: true}},
		"trimmed":  {{Rows: totals[0] - 1000, Total: totals[0], Live: true}, {Rows: totals[1], Total: totals[1], Live: true}},
	}
	for name, stats := range shapes {
		v := stripeView(b, stats)
		b.Run(name, func(b *testing.B) {
			n := v.Len()
			for i := 0; i < b.N; i++ {
				_, local, _ := v.Map(int64(i) * 7919 % n)
				sinkLocal += local
			}
		})
	}
}
