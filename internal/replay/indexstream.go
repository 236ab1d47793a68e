package replay

import (
	"math"
	"math/rand"
)

// indexStream is math/rand's v1 generator — the lagged-Fibonacci source
// behind rand.NewSource and the Intn of the rand.Rand around it — for the
// one caller that reseeds on every draw. FillIndices' output is a contract
// every topology shares (a local store, the learner's fabric draw, each
// pinned checkpoint), so the stream stays math/rand's bit for bit; what
// changes is its price. rand.NewSource spends 1 841 Park–Miller steps, each
// a Schrage division, filling a 607-word register it allocates on the heap;
// here the register lives on the caller's stack, the steps are
// multiplications modulo the Mersenne prime 2³¹−1 in three independent
// chains, and Intn's per-bound arithmetic is hoisted out of the loop.
type indexStream struct {
	tap, feed int
	vec       [streamLen]int64
}

const (
	streamLen = 607 // register length (math/rand's rngLen)
	streamTap = 273 // second tap (rngTap)

	pmModulus = 1<<31 - 1 // Park–Miller modulus, a Mersenne prime
	pmMult    = 48271     // Park–Miller multiplier
	pmZero    = 89482311  // what a seed ≡ 0 (mod 2³¹−1) is replaced with

	// pmMult3 and pmMult21 advance a Park–Miller state 3 and 21 steps.
	pmMult3  = pmMult * pmMult % pmModulus * pmMult % pmModulus
	pmMult6  = pmMult3 * pmMult3 % pmModulus
	pmMult21 = pmMult6 * pmMult6 % pmModulus * pmMult6 % pmModulus * pmMult3 % pmModulus
)

// seedCooked is XOR-ed into each seeding word (math/rand's rngCooked).
var seedCooked = deriveCooked()

// mulMod returns x·y mod 2³¹−1 for x, y < 2³¹: the product's high 31 bits
// fold onto its low 31 because 2³¹ ≡ 1, and the sum is below twice the
// modulus. Exact, as Schrage's method is; math/rand's seedrand is this with
// y = 48271.
func mulMod(x, y uint64) uint64 {
	p := x * y
	r := p&pmModulus + p>>31
	if r >= pmModulus {
		r -= pmModulus
	}
	return r
}

// seed is rngSource.Seed: the same reduction of the seed to a Park–Miller
// state x₀, then word i of the register is x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ
// ^ seedCooked[i] over the chain xⱼ₊₁ = 48271·xⱼ mod 2³¹−1. The three
// states of a word are three chains stepping by 48271³, so no step waits on
// the one before it. cooked is seedCooked outside deriveCooked.
func (s *indexStream) seed(seed int64, cooked *[streamLen]int64) {
	s.tap, s.feed = 0, streamLen-streamTap
	seed %= pmModulus
	if seed < 0 {
		seed += pmModulus
	}
	if seed == 0 {
		seed = pmZero
	}
	a := mulMod(uint64(seed), pmMult21)
	b := mulMod(a, pmMult)
	c := mulMod(b, pmMult)
	for i := range s.vec {
		s.vec[i] = int64(a<<40^b<<20^c) ^ cooked[i]
		a, b, c = mulMod(a, pmMult3), mulMod(b, pmMult3), mulMod(c, pmMult3)
	}
}

// uint64 is rngSource.Uint64: one step of the additive recurrence.
func (s *indexStream) uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += streamLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += streamLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// int63 is rngSource.Int63.
func (s *indexStream) int63() int64 { return int64(s.uint64() & math.MaxInt64) }

// bound is rand.Rand.Intn's arithmetic for one n, computed once per draw.
// Below 2³¹ Intn is Int31n, which takes the top 31 of the 63 bits, masks
// for a power of two and otherwise rejects draws above max and reduces the
// rest mod n; from 2³¹−1 up it is Int63n, the same on all 63 bits.
type bound struct {
	n    uint64
	max  uint64 // largest accepted raw draw
	pow2 bool
	wide bool // Int63n: n > 2³¹−1
}

func newBound(n int) bound {
	b := bound{n: uint64(n), pow2: n&(n-1) == 0, wide: n > math.MaxInt32}
	if b.wide {
		b.max = math.MaxInt64 - (1<<63)%b.n
	} else {
		b.max = math.MaxInt32 - (1<<31)%b.n
	}
	return b
}

// intn is rand.Rand.Intn(b.n).
func (s *indexStream) intn(b *bound) int {
	if b.wide {
		v := uint64(s.int63())
		if b.pow2 {
			return int(v & (b.n - 1))
		}
		for v > b.max {
			v = uint64(s.int63())
		}
		return int(v % b.n)
	}
	v := uint64(s.int63() >> 32)
	if b.pow2 {
		return int(v & (b.n - 1))
	}
	for v > b.max {
		v = uint64(s.int63() >> 32)
	}
	return int(uint32(v) % uint32(b.n))
}

// deriveCooked recovers math/rand's seeding table from its public behaviour
// rather than copying it: rand.NewSource(1)'s register is the seed-1 words
// XOR the table, and its first 607 outputs determine that register. Each
// output overwrites one distinct word (the feed), so after 607 of them the
// register holds exactly the outputs; undoing the steps newest first —
// feed −= tap, which call k left as it found it — walks back to the seeded
// register, and XOR-ing out the seed-1 words leaves the table.
func deriveCooked() *[streamLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var s indexStream
	s.tap, s.feed = 0, streamLen-streamTap
	for range streamLen {
		s.uint64() // advance tap and feed as the source does
		s.vec[s.feed] = int64(src.Uint64())
	}
	for range streamLen {
		s.vec[s.feed] -= s.vec[s.tap]
		if s.tap++; s.tap == streamLen {
			s.tap = 0
		}
		if s.feed++; s.feed == streamLen {
			s.feed = 0
		}
	}
	var words indexStream
	words.seed(1, new([streamLen]int64)) // the bare seed-1 words
	cooked := new([streamLen]int64)
	for i := range cooked {
		cooked[i] = s.vec[i] ^ words.vec[i]
	}
	return cooked
}
