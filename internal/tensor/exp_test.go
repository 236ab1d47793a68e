package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// expOverflow is the bound above which math.Exp returns +Inf without
// computing (exp_amd64.s's Overflow).
const expOverflow = 7.09782712893384e+02

// expSpecials are inputs the packed exponential hands back to math.Exp: its
// result is a constant, the argument, or a subnormal or zero reached through
// a second scaling — and, beside them, the edges of the inputs it computes.
var expSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff8000000000abc),
	math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff4000000000000),
	expOverflow, math.Nextafter(expOverflow, 0), math.Nextafter(expOverflow, 1000), 709.5, 710,
	-708.3964185322641, -708.4, -708.5, -709, -745.1332191019411, -745.2, -746,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
}

// expInputs returns n inputs of the named kind.
func expInputs(kind string, n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch kind {
		case "softmax": // a logit minus its row's largest
			v[i] = -math.Abs(rng.NormFloat64() * 6)
		case "range": // anything the packed routine computes, and beyond
			v[i] = -746 + 1456*rng.Float64()
		case "denormal": // the band where 2^k stops being normal, and the results do
			v[i] = -745.5 + 38*rng.Float64()
		case "overflow": // the top of the range, either side of Overflow
			v[i] = 709 + 0.8*rng.Float64()
		case "halves": // ±4 ulp around (j + 1/2)·ln 2, where k rounds to even
			j := float64(rng.Intn(2046) - 1023)
			b := math.Float64bits((j + 0.5) * math.Ln2)
			v[i] = math.Float64frombits(b + uint64(rng.Intn(9)) - 4)
		case "tiny": // where x·Log2e rounds to a zero of either sign
			v[i] = math.Copysign(math.Float64frombits(uint64(rng.Int63n(0x3fd0<<48))), rng.Float64()-0.5)
		case "mixed": // specials wherever they fall
			if rng.Intn(4) == 0 {
				v[i] = expSpecials[rng.Intn(len(expSpecials))]
			} else {
				v[i] = math.Float64frombits(rng.Uint64())
			}
		default:
			panic("no exp input kind " + kind)
		}
	}
	return v
}

var expKinds = []string{"softmax", "range", "denormal", "overflow", "halves", "tiny", "mixed"}

func checkExp(t *testing.T, label string, src []float64) {
	t.Helper()
	checkElementwise(t, "Exp", Exp, math.Exp, label, src)
}

// TestExpMatchesMathExp: Exp is math.Exp, bit for bit, on every body — for
// lengths with every tail, every kind of input the packed routine computes
// (the rounding of k to even included), the denormal band near -708 and the
// overflow edge near 709.78, and every input it does not compute, planted at
// each lane position of a vector.
func TestExpMatchesMathExp(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	lengths := []int{1024}
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	for _, kind := range expKinds {
		for _, n := range lengths {
			checkExp(t, kind, expInputs(kind, n, rng))
		}
	}
	// One special among computed lanes, at every lane of the first, a middle
	// and the last vector, and in the tail.
	for _, special := range expSpecials {
		for _, n := range []int{8, 19, 33} {
			for at := 0; at < n; at++ {
				src := expInputs("softmax", n, rng)
				src[at] = special
				checkExp(t, fmt.Sprintf("special %#016x at %d", math.Float64bits(special), at), src)
			}
		}
	}
	for _, kind := range expKinds {
		checkExp(t, kind+" sweep", expInputs(kind, 1<<18, rng))
	}
}

func TestExpPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp with 3 and 4 elements did not panic")
		}
	}()
	Exp(make([]float64, 3), make([]float64, 4))
}

// FuzzExp drives the same comparison from fuzzed bit patterns: a seed picks
// the filler, and the fuzzed pattern is planted at a fuzzed place.
func FuzzExp(f *testing.F) {
	rng := rand.New(rand.NewSource(28))
	for _, kind := range expKinds {
		for _, x := range expInputs(kind, 3, rng) {
			f.Add(math.Float64bits(x), uint8(rng.Intn(40)), uint8(rng.Intn(40)), int64(rng.Intn(100)))
		}
	}
	for i, x := range expSpecials {
		f.Add(math.Float64bits(x), uint8(17+i), uint8(i), int64(i))
	}
	f.Fuzz(func(t *testing.T, bits uint64, n, at uint8, seed int64) {
		src := expInputs("range", int(n)%41+1, rand.New(rand.NewSource(seed)))
		src[int(at)%len(src)] = math.Float64frombits(bits)
		checkExp(t, "fuzz", src)
	})
}

// BenchmarkExp reports ns per exponential on each body this CPU can run, the
// bodies taking turns rep by rep as in BenchmarkKernels, at one row of
// action logits (5), eight of them (40) and a block of 1024 such rows
// (5120), the size of one softmax over an update's batch.
func BenchmarkExp(b *testing.B) {
	paths := kernelPaths(b)
	for _, n := range []int{5, 40, 5120} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			src := expInputs("softmax", n, rand.New(rand.NewSource(7)))
			dst := make([]float64, n)
			inner := max(1, 20000/n)
			spent := make([]time.Duration, len(paths))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for pi, path := range paths {
					vectorLanes = kernelLanes[path]
					t0 := time.Now()
					for r := 0; r < inner; r++ {
						Exp(dst, src)
					}
					spent[pi] += time.Since(t0)
				}
			}
			vectorLanes = cpuVectorLanes()
			b.ReportMetric(0, "ns/op") // the sum over the bodies: no body's time
			for pi, path := range paths {
				b.ReportMetric(float64(spent[pi].Nanoseconds())/float64(n*inner*b.N), path+"-ns/elem")
			}
		})
	}
}
