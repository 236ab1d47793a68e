package replay

// The index stream, pinned. FillIndices is the one selection every topology
// shares — a local store, the learner's fabric draw, the benchmark's mirror
// check — so what it writes for a (plan, length, seed) is a contract, not an
// implementation detail. The CRCs below were recorded at 712ea23, where it
// drew from rand.New(rand.NewSource(seed)).Intn, and are never edited;
// math/rand itself stays the oracle for everything else in this file.

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// mathRandFill is FillIndices as math/rand's v1 generator writes it.
func mathRandFill(p SamplePlan, dst []int, length int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	if p.Strategy == PlanUniform {
		for i := range dst {
			dst[i] = rng.Intn(length)
		}
		return
	}
	for filled := 0; filled < len(dst); {
		ref := rng.Intn(length)
		for k := 0; k < p.Neighbors && filled < len(dst); k++ {
			dst[filled] = (ref + k) % length
			filled++
		}
	}
}

var (
	goldenPlans = []SamplePlan{
		{Strategy: PlanUniform},
		{Strategy: PlanLocality, Neighbors: 16, Refs: 64},
		{Strategy: PlanLocality, Neighbors: 64, Refs: 16},
	}
	goldenLengths = []int{1, 7, 4096, 131072, math.MaxInt32, math.MaxInt32 + 6}
	goldenSeeds   = []int64{0, 1, -1, math.MaxInt32, 1 << 40, math.MaxInt64, math.MinInt64}
	goldenNs      = []int{1, 1024, 2000}
)

// goldenIndexCRCs[plan][length] is the CRC-32 of every index the plan wrote
// over that length, as little-endian u64s, for each seed and then each n
// of the lists above.
var goldenIndexCRCs = [3][6]uint32{
	{0xf773a0d3, 0xfb43d1c9, 0xce13b7df, 0x4f5d3a20, 0xb2e5087d, 0x63faadee},
	{0xf773a0d3, 0xa50990d7, 0xd7fd64a4, 0x862ce1ab, 0xab7e1090, 0x79435055},
	{0xf773a0d3, 0xfbed4c37, 0x420c21f2, 0x9c384b26, 0xd26e6357, 0x1a00f9b8},
}

// TestSamplePlanGoldenIndices pins the stream on both of Intn's paths
// (lengths at and beyond 2³¹−1), powers of two and not, the seed
// reduction's edges (0, the modulus, negative, beyond 32 bits) and the
// final run of a locality draw cut short.
func TestSamplePlanGoldenIndices(t *testing.T) {
	dst := make([]int, 2000)
	var word [8]byte
	for pi, plan := range goldenPlans {
		for li, length := range goldenLengths {
			crc := uint32(0)
			for _, seed := range goldenSeeds {
				for _, n := range goldenNs {
					if err := plan.FillIndices(dst[:n], length, seed); err != nil {
						t.Fatal(err)
					}
					for _, v := range dst[:n] {
						binary.LittleEndian.PutUint64(word[:], uint64(v))
						crc = crc32.Update(crc, crc32.IEEETable, word[:])
					}
				}
			}
			if want := goldenIndexCRCs[pi][li]; crc != want {
				t.Errorf("%v over %d rows: index CRC %#08x, golden %#08x", plan, length, crc, want)
			}
		}
	}
}

// randomCell draws one (plan, length, seed, n) with the awkward values
// over-represented: lengths on and around powers of two and Intn's 2³¹−1
// switch, lengths where Int63n rejects half its draws, and seeds that the
// reduction maps to 0 or that overflow 32 bits.
func randomCell(rng *rand.Rand) (SamplePlan, int, int64, int) {
	plan := SamplePlan{Strategy: PlanUniform}
	if rng.Intn(2) == 0 {
		plan = SamplePlan{Strategy: PlanLocality, Neighbors: 1 + rng.Intn(70), Refs: 1}
	}
	var length int
	switch rng.Intn(6) {
	case 0:
		length = 1 + rng.Intn(64)
	case 1:
		length = 1 + rng.Intn(1<<20)
	case 2:
		length = 1 << rng.Intn(63)
	case 3:
		length = math.MaxInt32 + rng.Intn(9) - 4
	case 4:
		length = 1<<62 + 1 + rng.Intn(1000)
	default:
		length = 1 + int(rng.Int63n(math.MaxInt64))
	}
	seed := rng.Int63()
	switch rng.Intn(5) {
	case 0:
		seed = -seed
	case 1:
		seed = int64(rng.Intn(4)-2) * math.MaxInt32 * int64(1+rng.Intn(3))
	case 2:
		seed = int64(rng.Intn(1 << 16))
	}
	return plan, length, seed, rng.Intn(300)
}

// TestIndexStreamMatchesMathRand holds FillIndices to math/rand over 10 000
// random cells.
func TestIndexStreamMatchesMathRand(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	got := make([]int, 300)
	want := make([]int, 300)
	for cell := 0; cell < 10000; cell++ {
		plan, length, seed, n := randomCell(rng)
		if err := plan.FillIndices(got[:n], length, seed); err != nil {
			t.Fatal(err)
		}
		mathRandFill(plan, want[:n], length, seed)
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				t.Fatalf("cell %d, %v over %d rows, seed %d: index %d is %d, math/rand says %d", cell, plan, length, seed, i, got[i], want[i])
			}
		}
	}
}

func FuzzFillIndices(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(1), uint8(0))
	f.Add(int64(-1), int64(math.MaxInt32), uint16(1024), uint8(16))
	f.Add(int64(math.MinInt64), int64(math.MaxInt32)+6, uint16(2000), uint8(64))
	f.Add(int64(math.MaxInt32), int64(1)<<62+1, uint16(300), uint8(0))
	f.Add(int64(1)<<40, int64(4096), uint16(7), uint8(3))
	f.Fuzz(func(t *testing.T, seed, length int64, n uint16, neighbors uint8) {
		plan := SamplePlan{Strategy: PlanUniform}
		if neighbors > 0 {
			plan = SamplePlan{Strategy: PlanLocality, Neighbors: int(neighbors), Refs: 1}
		}
		got := make([]int, n%4097)
		err := plan.FillIndices(got, int(length), seed)
		if length < 1 {
			if err == nil {
				t.Fatalf("length %d accepted", length)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, len(got))
		mathRandFill(plan, want, int(length), seed)
		if !slices.Equal(got, want) {
			t.Fatalf("%v over %d rows, seed %d: FillIndices %v, math/rand %v", plan, length, seed, got, want)
		}
	})
}
