package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// refSoftmax is Softmax as it was before the exponentials went through Exp:
// a math.Exp per element, summed as they are taken. It is the oracle
// Softmax and SoftmaxRows are held to.
func refSoftmax(dst, logits []float64) {
	mx := logits[0]
	for _, v := range logits[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - mx)
		dst[i] = e
		sum += e
	}
	inv := 1.0 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// softmaxLogits returns rows×cols logits: N(0, 3) with, in a few rows, a
// NaN, an infinity of each sign and logits so far below the row's largest
// that their exponentials are subnormal or zero.
func softmaxLogits(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	m.RandNormal(rng, 0, 3)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -720, -800}
	for r := 2; r < rows; r += 7 {
		m.Row(r)[r%cols] = specials[(r/7)%len(specials)]
	}
	return m
}

// TestSoftmaxRowsMatchesRowByRow: on every body, SoftmaxRows writes the bits
// of the scalar row loop on every row — into a dense dst, in place, into a
// column view among canaries, from a view — at row counts short of a group,
// of whole groups, filling a block and crossing into the next with a
// remainder, at widths up to a block's worth and past it; Softmax, row by
// row, does too.
func TestSoftmaxRowsMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	canary := math.Float64frombits(0x7ff8dead0000beef)
	for _, cols := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 63, 64, 65, 128, 129} {
		for _, rows := range []int{1, 3, 4, 8, 17, 97, 250} {
			src := softmaxLogits(rows, cols, rng)
			want := New(rows, cols)
			for i := 0; i < rows; i++ {
				refSoftmax(want.Row(i), src.Row(i))
			}
			for _, path := range kernelPaths(t) {
				setKernelPath(t, path)
				label := fmt.Sprintf("path=%s %dx%d", path, rows, cols)
				check := func(how string, got *Matrix) {
					t.Helper()
					for i := 0; i < rows; i++ {
						for j, w := range want.Row(i) {
							if g := got.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("%s %s: [%d][%d] = %#016x, the row loop gives %#016x", label, how, i, j, math.Float64bits(g), math.Float64bits(w))
							}
						}
					}
				}
				check("dense", SoftmaxRows(New(rows, cols), src))
				inPlace := src.Clone()
				check("in place", SoftmaxRows(inPlace, inPlace))
				parent := New(rows, cols+5)
				parent.Fill(canary)
				check("into a view", SoftmaxRows(parent.ColView(2, 2+cols), src))
				for i := 0; i < rows; i++ {
					for j, v := range parent.Row(i) {
						if (j < 2 || j >= 2+cols) && math.Float64bits(v) != math.Float64bits(canary) {
							t.Fatalf("%s into a view: column %d of row %d beside the view was written", label, j, i)
						}
					}
				}
				srcView := New(rows, cols+3).ColView(3, 3+cols)
				for i := 0; i < rows; i++ {
					copy(srcView.Row(i), src.Row(i))
				}
				check("from a view", SoftmaxRows(New(rows, cols), srcView))
				rowwise := New(rows, cols)
				for i := 0; i < rows; i++ {
					Softmax(rowwise.Row(i), src.Row(i))
				}
				check("Softmax", rowwise)
			}
		}
	}
}

// TestSoftmaxRowsPanics: on mismatched shapes, and on a dst that shares
// storage with src without being it.
func TestSoftmaxRowsPanics(t *testing.T) {
	buf := make([]float64, 20)
	for name, fn := range map[string]func(){
		"shape":   func() { SoftmaxRows(New(2, 5), New(2, 4)) },
		"overlap": func() { SoftmaxRows(FromSlice(2, 5, buf[:10]), FromSlice(2, 5, buf[5:15])) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkSoftmaxRows reports ns per element on each body this CPU can
// run, the bodies taking turns rep by rep as in BenchmarkKernels, for the
// target softmax of one agent's update: 1024 rows of five finite action
// logits into a column view of a joint input.
func BenchmarkSoftmaxRows(b *testing.B) {
	src := New(1024, 5)
	src.RandNormal(rand.New(rand.NewSource(8)), 0, 3)
	dst := New(1024, 63).ColView(48, 53)
	paths := kernelPaths(b)
	spent := make([]time.Duration, len(paths))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pi, path := range paths {
			vectorLanes = kernelLanes[path]
			t0 := time.Now()
			SoftmaxRows(dst, src)
			spent[pi] += time.Since(t0)
		}
	}
	vectorLanes = cpuVectorLanes()
	b.ReportMetric(0, "ns/op") // the sum over the bodies: no body's time
	for pi, path := range paths {
		b.ReportMetric(float64(spent[pi].Nanoseconds())/float64(len(src.Data)*b.N), path+"-ns/elem")
	}
}
