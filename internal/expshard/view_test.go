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

// simulate streams T rows through the placement function and applies
// per-group trims, returning the per-group retained substreams plus
// the flat (t, group, local) triples of all live retained rows in
// ascending t order — exactly what Map must reproduce.
func simulate(part2group []int, partitions int, offset uint64, T int64, trims []int64, live []bool) ([]GroupStat, []simGroup, [][3]int64) {
	groups := len(trims)
	sims := make([]simGroup, groups)
	totals := make([]int64, groups)
	for t := int64(0); t < T; t++ {
		p := (int64(offset) + t) % int64(partitions)
		g := part2group[p]
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
	// Sort by t (insertion: small sizes).
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j-1].t > rows[j].t; j-- {
			rows[j-1], rows[j] = rows[j], rows[j-1]
		}
	}
	for _, r := range rows {
		flat = append(flat, [3]int64{r.t, r.g, r.local})
	}
	return stats, sims, flat
}

func checkViewAgainstSim(t *testing.T, partitions int, offset uint64, part2group []int, stats []GroupStat, flat [][3]int64, wantBalanced bool) {
	t.Helper()
	v, err := NewView(partitions, offset, part2group, stats)
	if err != nil {
		t.Fatal(err)
	}
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

func buildMap(t *testing.T, n, partitions int) []int {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = "shard-" + string(rune('a'+i))
	}
	s, err := BuildSnapshot(mkGroups(ids...), partitions)
	if err != nil {
		t.Fatal(err)
	}
	return s.Part2Group
}

func TestViewMapBalanced(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		for _, offset := range []uint64{0, 7} {
			p2g := buildMap(t, n, 32)
			trims := make([]int64, n)
			live := make([]bool, n)
			for i := range live {
				live[i] = true
			}
			stats, _, flat := simulate(p2g, 32, offset, 229, trims, live)
			checkViewAgainstSim(t, 32, offset, p2g, stats, flat, true)
		}
	}
}

func TestViewMapWithTrims(t *testing.T) {
	n := 3
	p2g := buildMap(t, n, 32)
	live := []bool{true, true, true}
	trims := []int64{5, 0, 11}
	stats, _, flat := simulate(p2g, 32, 0, 300, trims, live)
	checkViewAgainstSim(t, 32, 0, p2g, stats, flat, false)
}

func TestViewMapWithDeadGroup(t *testing.T) {
	n := 4
	p2g := buildMap(t, n, 64)
	live := []bool{true, false, true, true}
	trims := make([]int64, n)
	stats, _, flat := simulate(p2g, 64, 0, 500, trims, live)
	checkViewAgainstSim(t, 64, 0, p2g, stats, flat, false)
}

func TestViewMapTrimsAndDead(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		partitions := []int{16, 32, 64}[rng.Intn(3)]
		p2g := buildMap(t, n, partitions)
		T := int64(50 + rng.Intn(400))
		trims := make([]int64, n)
		live := make([]bool, n)
		anyLive := false
		for g := 0; g < n; g++ {
			live[g] = rng.Intn(4) != 0
			anyLive = anyLive || live[g]
			trims[g] = int64(rng.Intn(10))
		}
		if !anyLive {
			live[0] = true
		}
		offset := uint64(rng.Intn(partitions))
		allLive, allZero := true, true
		for g := 0; g < n; g++ {
			allLive = allLive && live[g]
			allZero = allZero && trims[g] == 0
		}
		// Trims larger than a group's total would make the sim slice
		// out of range; skip those draws.
		probe, _, _ := simulate(p2g, partitions, offset, T, make([]int64, n), live)
		ok := true
		for g := range probe {
			if trims[g] > int64(probe[g].Total) {
				ok = false
			}
		}
		if !ok {
			continue
		}
		stats, _, flat := simulate(p2g, partitions, offset, T, trims, live)
		if len(flat) == 0 {
			continue
		}
		checkViewAgainstSim(t, partitions, offset, p2g, stats, flat, allLive && allZero)
	}
}

// Inconsistent stats (rows not matching striped placement — e.g. a
// producer whose counter restarted) must degrade to clamping, never
// out-of-range locals or panics.
func TestViewMapClampsOnPlacementMismatch(t *testing.T) {
	p2g := buildMap(t, 2, 16)
	stats := []GroupStat{
		{Rows: 100, Total: 100, Live: true},
		{Rows: 3, Total: 3, Live: true}, // far fewer than striping implies
	}
	v, err := NewView(16, 0, p2g, stats)
	if err != nil {
		t.Fatal(err)
	}
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
	p2g := buildMap(t, 3, 32)
	live := []bool{true, true, true}
	stats, _, _ := simulate(p2g, 32, 0, 200, make([]int64, 3), live)
	v, err := NewView(32, 0, p2g, stats)
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestViewErrors(t *testing.T) {
	p2g := buildMap(t, 2, 16)
	good := []GroupStat{{Rows: 1, Total: 1, Live: true}, {Rows: 1, Total: 1, Live: true}}
	if _, err := NewView(0, 0, nil, good); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, err := NewView(16, 0, p2g[:8], good); err == nil {
		t.Error("short part2group accepted")
	}
	if _, err := NewView(16, 0, p2g, nil); err == nil {
		t.Error("no groups accepted")
	}
	bad := []GroupStat{{Rows: 5, Total: 3, Live: true}, {Rows: 1, Total: 1, Live: true}}
	if _, err := NewView(16, 0, p2g, bad); err == nil {
		t.Error("rows > total accepted")
	}
	p2gBad := make([]int, 16)
	p2gBad[3] = 9
	if _, err := NewView(16, 0, p2gBad, good); err == nil {
		t.Error("out-of-range group index accepted")
	}
}

// refView is the mapping as it was computed before the prefix table: per
// group, the sorted residues of its partitions, and a binary search over
// them on every count. The table is tested against it.
type refView struct {
	partitions int
	offset     uint64
	part2group []int
	stats      []GroupStat
	owned      [][]int64
	length     int64
	balanced   bool
	maxT       int64
}

func newRefView(partitions int, offset uint64, part2group []int, stats []GroupStat) *refView {
	v := &refView{partitions: partitions, offset: offset % uint64(partitions), part2group: part2group, stats: stats}
	v.owned = make([][]int64, len(stats))
	for p, g := range part2group {
		a := (int64(p) - int64(v.offset) + int64(partitions)) % int64(partitions)
		v.owned[g] = append(v.owned[g], a)
	}
	for g := range v.owned {
		sort.Slice(v.owned[g], func(i, j int) bool { return v.owned[g][i] < v.owned[g][j] })
	}
	allLive, trimsZero := true, true
	for g, st := range stats {
		if !st.Live {
			allLive = false
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
	if allLive && trimsZero {
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
	if len(res) == 0 {
		return 0
	}
	p := int64(v.partitions)
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
	if total == 0 || len(v.owned[g]) == 0 {
		return 0
	}
	k := int64(len(v.owned[g]))
	q, r := (total-1)/k, (total-1)%k
	return q*int64(v.partitions) + v.owned[g][r] + 1
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
		p := (int64(v.offset) + i) % int64(v.partitions)
		g := v.part2group[p]
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
	p := (int64(v.offset) + t) % int64(v.partitions)
	g := v.part2group[p]
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
func compareWithRef(t testing.TB, partitions int, offset uint64, part2group []int, stats []GroupStat) {
	t.Helper()
	v, err := NewView(partitions, offset, part2group, stats)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefView(partitions, offset, part2group, stats)
	if v.Len() != ref.length || v.balanced != ref.balanced || v.maxT != ref.maxT {
		t.Fatalf("P=%d offset=%d: view (len %d, balanced %v, maxT %d), reference (len %d, balanced %v, maxT %d)",
			partitions, offset, v.Len(), v.balanced, v.maxT, ref.length, ref.balanced, ref.maxT)
	}
	for g := range stats {
		for _, tt := range []int64{-1, 0, 1, int64(partitions) - 1, int64(partitions), int64(partitions) + 1, 3*int64(partitions) + 2, ref.maxT} {
			if got, want := v.ownedCountBefore(tt, g), ref.ownedCountBefore(tt, g); got != want {
				t.Fatalf("P=%d offset=%d: ownedCountBefore(%d, %d) = %d, reference %d", partitions, offset, tt, g, got, want)
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
			t.Fatalf("P=%d offset=%d stats=%v: Map(%d) = (%d, %d, %v), reference (%d, %d, %v)",
				partitions, offset, stats, i, g, local, clamped, rg, rlocal, rclamped)
		}
	}
	if n := v.Len(); n > 0 {
		g, local, clamped := v.Map(n - 1)
		rg, rlocal, rclamped := ref.Map(n - 1)
		if g != rg || local != rlocal || clamped != rclamped {
			t.Fatalf("P=%d offset=%d: Map(last) = (%d, %d, %v), reference (%d, %d, %v)", partitions, offset, g, local, clamped, rg, rlocal, rclamped)
		}
	}
}

// striped returns the per-group totals of a stream of rows striped over
// part2group from offset.
func striped(part2group []int, groups int, offset uint64, rows int64) []uint64 {
	totals := make([]uint64, groups)
	p := int64(len(part2group))
	for g := range totals {
		for a := int64(0); a < p; a++ {
			if part2group[(int64(offset%uint64(p))+a)%p] == g {
				totals[g] += uint64(rows / p)
				if a < rows%p {
					totals[g]++
				}
			}
		}
	}
	return totals
}

// The prefix table must agree with the binary search it replaced on
// every shape the wire format admits: partition counts from 1 to the
// maximum, any offset, one group or many (some owning nothing), balanced
// streams, trims, dead groups and totals that contradict the striping.
func TestViewTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, partitions := range []int{1, 2, 3, 64, 1024} {
		for _, groups := range []int{1, 2, 3, 7} {
			for _, offset := range []uint64{0, 1, uint64(partitions) - 1, uint64(partitions) + 5} {
				p2g := make([]int, partitions)
				for p := range p2g {
					p2g[p] = rng.Intn(groups)
				}
				rows := int64(rng.Intn(5 * partitions))
				totals := striped(p2g, groups, offset, rows)

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
					compareWithRef(t, partitions, offset, p2g, stats)
				}
			}
		}
	}
}

func TestViewBalancedStripingIsBalanced(t *testing.T) {
	p2g := buildMap(t, 2, 64)
	totals := striped(p2g, 2, 9, 131072)
	stats := []GroupStat{{Rows: totals[0], Total: totals[0], Live: true}, {Rows: totals[1], Total: totals[1], Live: true}}
	v, err := NewView(64, 9, p2g, stats)
	if err != nil {
		t.Fatal(err)
	}
	if !v.balanced {
		t.Fatal("a striped stream's view is not balanced")
	}
	compareWithRef(t, 64, 9, p2g, stats)
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
		groups := 2 + rng.Intn(3)
		partitions := []int{16, 64, 1024}[rng.Intn(3)]
		p2g := make([]int, partitions)
		for p := range p2g {
			p2g[p] = (p*7/3 + rng.Intn(2)) % groups
		}
		offset := uint64(rng.Intn(partitions))
		rows := int64(5000 + rng.Intn(20000))
		totals := striped(p2g, groups, offset, rows)
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
			v, err := NewView(partitions, offset, p2g, stats)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefView(partitions, offset, p2g, stats)
			guessed := int64(0)
			for i := int64(0); i < v.Len(); i++ {
				g, local, clamped := v.Map(i)
				rg, rlocal, rclamped := ref.Map(i)
				if g != rg || local != rlocal || clamped != rclamped {
					t.Fatalf("trial %d %s P=%d offset=%d stats=%v: Map(%d) = (%d, %d, %v), bisection (%d, %d, %v)",
						trial, name, partitions, offset, stats, i, g, local, clamped, rg, rlocal, rclamped)
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
	p2g := make([]int, 64)
	for p := range p2g {
		p2g[p] = (p * 7 / 3) % 2
	}
	totals := striped(p2g, 2, 0, 131072)
	shapes := map[string][]GroupStat{
		"balanced": {{Rows: totals[0], Total: totals[0], Live: true}, {Rows: totals[1], Total: totals[1], Live: true}},
		"trimmed":  {{Rows: totals[0] - 1000, Total: totals[0], Live: true}, {Rows: totals[1], Total: totals[1], Live: true}},
	}
	for name, stats := range shapes {
		v, err := NewView(64, 0, p2g, stats)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			n := v.Len()
			for i := 0; i < b.N; i++ {
				_, local, _ := v.Map(int64(i) * 7919 % n)
				sinkLocal += local
			}
		})
	}
}
