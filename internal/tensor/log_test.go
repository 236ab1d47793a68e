package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// logSpecials are the inputs the packed logarithm hands back to math.Log:
// the result is a constant or the argument, a NaN with its payload.
var logSpecials = []float64{
	0, math.Copysign(0, -1), -1, -math.SmallestNonzeroFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff8000000000abc),
	math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff4000000000000),
}

// logInputs returns n inputs of the named kind.
func logInputs(kind string, n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch kind {
		case "uniform": // what SampleGumbel takes the first logarithm of
			v[i] = rng.Float64() + 1e-20
		case "neglog": // and the second
			v[i] = -math.Log(rng.Float64()+1e-20) + 1e-20
		case "normals": // every positive normal bit pattern is as likely as another
			v[i] = math.Float64frombits(1<<52 + uint64(rng.Int63n(0x7ff<<52-1<<52)))
		case "subnormals":
			v[i] = math.Float64frombits(1 + uint64(rng.Int63n(1<<52-1)))
		case "sqrt2": // ±4 ulp around √2/2·2^k, where the exponent is re-split
			k := rng.Intn(2098) - 1074
			b := math.Float64bits(math.Ldexp(math.Sqrt2/2, k))
			v[i] = math.Float64frombits(b + uint64(rng.Intn(9)) - 4)
		case "one": // 1 and its two neighbours
			v[i] = math.Float64frombits(math.Float64bits(1) + uint64(rng.Intn(3)) - 1)
		case "extremes":
			v[i] = []float64{math.SmallestNonzeroFloat64, math.MaxFloat64, 0x1p-1022, 0x1p-1022 - 0x1p-1074, 2, 0.5}[rng.Intn(6)]
		case "mixed": // specials wherever they fall
			if rng.Intn(4) == 0 {
				v[i] = logSpecials[rng.Intn(len(logSpecials))]
			} else {
				v[i] = math.Float64frombits(uint64(rng.Int63n(0x7ff << 52)))
			}
		default:
			panic("no log input kind " + kind)
		}
	}
	return v
}

var logKinds = []string{"uniform", "neglog", "normals", "subnormals", "sqrt2", "one", "extremes", "mixed"}

// checkLog holds Log to math.Log over src: checkElementwise.
func checkLog(t *testing.T, label string, src []float64) {
	t.Helper()
	checkElementwise(t, "Log", Log, math.Log, label, src)
}

// checkElementwise holds f, one of the package's packed elementwise
// functions, to ref, the math function it must equal bit for bit, over src
// on every body this CPU has: into a separate dst and in place, both cut out
// of the middle of a larger buffer whose other words must come back
// untouched.
func checkElementwise(t *testing.T, name string, f func(dst, src []float64), ref func(float64) float64, label string, src []float64) {
	t.Helper()
	const guard = 9
	canary := math.Float64frombits(0x7ff8dead0000beef) // a NaN neither function produces
	n := len(src)
	want := make([]float64, n)
	for i, x := range src {
		want[i] = ref(x)
	}
	for _, path := range kernelPaths(t) {
		setKernelPath(t, path)
		for _, inPlace := range []bool{false, true} {
			buf := make([]float64, n+2*guard)
			for i := range buf {
				buf[i] = canary
			}
			dst := buf[guard : guard+n]
			in := append([]float64(nil), src...)
			if inPlace {
				copy(dst, src)
				in = dst
			}
			f(dst, in)
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s path=%s n=%d inPlace=%v: %s(%#016x) = %#016x at %d, math.%s gives %#016x",
						label, path, n, inPlace, name, math.Float64bits(src[i]), math.Float64bits(dst[i]), i, name, math.Float64bits(want[i]))
				}
			}
			for i := range buf {
				if (i < guard || i >= guard+n) && math.Float64bits(buf[i]) != math.Float64bits(canary) {
					t.Fatalf("%s path=%s n=%d inPlace=%v: word %d beside dst was overwritten", label, path, n, inPlace, i-guard)
				}
			}
			if !inPlace {
				for i := range in {
					if math.Float64bits(in[i]) != math.Float64bits(src[i]) {
						t.Fatalf("%s path=%s n=%d: src was written at %d", label, path, n, i)
					}
				}
			}
		}
	}
}

// TestLogMatchesMathLog: Log is math.Log, bit for bit, on every body — for
// lengths with every tail, every kind of input the packed routine computes,
// and every input it does not, planted at each lane position of a vector.
func TestLogMatchesMathLog(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	lengths := []int{1024}
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	for _, kind := range logKinds {
		for _, n := range lengths {
			checkLog(t, kind, logInputs(kind, n, rng))
		}
	}
	// One special among loggable lanes, at every lane of the first, a middle
	// and the last vector, and in the tail.
	for _, special := range logSpecials {
		for _, n := range []int{8, 19, 33} {
			for at := 0; at < n; at++ {
				src := logInputs("uniform", n, rng)
				src[at] = special
				checkLog(t, fmt.Sprintf("special %#016x at %d", math.Float64bits(special), at), src)
			}
		}
	}
	// The sweep that sized the change ran 16 M inputs; a quarter of a million
	// per kind keep the test under a second.
	for _, kind := range logKinds {
		checkLog(t, kind+" sweep", logInputs(kind, 1<<18, rng))
	}
}

func TestLogPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log with 3 and 4 elements did not panic")
		}
	}()
	Log(make([]float64, 3), make([]float64, 4))
}

// FuzzLog drives the same comparison from fuzzed bit patterns: a seed picks
// the loggable filler, and the fuzzed pattern is planted at a fuzzed place.
func FuzzLog(f *testing.F) {
	rng := rand.New(rand.NewSource(25))
	for _, kind := range logKinds {
		for _, x := range logInputs(kind, 3, rng) {
			f.Add(math.Float64bits(x), uint8(rng.Intn(40)), uint8(rng.Intn(40)), int64(rng.Intn(100)))
		}
	}
	for i, x := range logSpecials {
		f.Add(math.Float64bits(x), uint8(17+i), uint8(i), int64(i))
	}
	f.Fuzz(func(t *testing.T, bits uint64, n, at uint8, seed int64) {
		src := logInputs("normals", int(n)%41+1, rand.New(rand.NewSource(seed)))
		src[int(at)%len(src)] = math.Float64frombits(bits)
		checkLog(t, "fuzz", src)
	})
}

// BenchmarkLog reports ns per logarithm on each body this CPU can run, the
// bodies taking turns rep by rep as in BenchmarkKernels, at one row of
// exploration noise (5), one agent's block of it over eight envs (40) and a
// length where the loop is all there is (1024).
func BenchmarkLog(b *testing.B) {
	paths := kernelPaths(b)
	for _, n := range []int{5, 40, 1024} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			src := logInputs("uniform", n, rand.New(rand.NewSource(6)))
			dst := make([]float64, n)
			inner := max(1, 20000/n)
			spent := make([]time.Duration, len(paths))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for pi, path := range paths {
					vectorLanes = kernelLanes[path]
					t0 := time.Now()
					for r := 0; r < inner; r++ {
						Log(dst, src)
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
