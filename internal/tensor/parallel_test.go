package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: every parallel kernel produces exactly the serial result, for
// shapes both below and above the parallel threshold.
func TestParallelKernelsMatchSerialProperty(t *testing.T) {
	f := func(seed int64, big bool) bool {
		r := rand.New(rand.NewSource(seed))
		var n, m, p int
		if big {
			n, m, p = 200+r.Intn(100), 50+r.Intn(50), 50+r.Intn(50)
		} else {
			n, m, p = 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		}
		a := New(n, m)
		a.RandNormal(r, 0, 1)
		b := New(m, p)
		b.RandNormal(r, 0, 1)

		want := MatMul(New(n, p), a, b)
		got := MatMulParallel(New(n, p), a, b)
		if !ApproxEqual(got, want, 1e-12) {
			return false
		}

		bt := New(p, m) // for a × btᵀ comparison
		bt.RandNormal(r, 0, 1)
		wantTB := MatMulTransB(New(n, p), a, bt)
		gotTB := MatMulParallel(New(n, p), a, TransposeRows(nil, bt, 0, p))
		if !ApproxEqual(gotTB, wantTB, 1e-12) {
			return false
		}

		c := New(n, p)
		c.RandNormal(r, 0, 1)
		wantTA := MatMulTransA(New(m, p), a, c)
		gotTA := MatMulTransAParallel(New(m, p), a, c)
		return ApproxEqual(gotTA, wantTA, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelKernelsPanicLikeSerialOnBadShapes(t *testing.T) {
	for name, fn := range map[string]func(){
		"matmul":  func() { MatMulParallel(New(2, 2), New(2, 3), New(2, 2)) },
		"transB":  func() { MatMulTransB(New(2, 2), New(2, 3), New(2, 2)) },
		"transA":  func() { MatMulTransAParallel(New(2, 2), New(3, 2), New(2, 2)) },
		"destDim": func() { MatMulParallel(New(1, 1), New(2, 3), New(3, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: bad shapes did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := New(512, 300)
	a.RandNormal(rng, 0, 1)
	b := New(300, 128)
	b.RandNormal(rng, 0, 1)
	first := MatMulParallel(New(512, 128), a, b)
	for trial := 0; trial < 5; trial++ {
		again := MatMulParallel(New(512, 128), a, b)
		if !ApproxEqual(first, again, 0) {
			t.Fatal("parallel matmul is not bitwise deterministic")
		}
	}
}
