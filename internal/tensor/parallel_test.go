package tensor

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// These tests keep the names they had while the products could split their
// rows over goroutines (EXPERIMENTS.md, "PR 23"). What that rested on, core's
// per-agent pool rests on too: a product is a pure function of its operands,
// whoever calls it and however its rows are divided.

// Property: both row-range nests over any two-way split [0, s) + [s, rows)
// give exactly what one call over [0, rows) gives, at shapes of a few rows
// and of a few hundred.
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
		bias := New(1, p)
		bias.RandNormal(r, 0, 1)

		want := MatMulBias(New(n, p), a, b, bias.Data, true)
		got, s := poison(New(n, p)), r.Intn(n+1)
		matMulRows(got, a, b, bias.Data, true, nil, s, n)
		matMulRows(got, a, b, bias.Data, true, nil, 0, s)
		if _, ok := bitsEqual(got, want); !ok {
			return false
		}

		c := New(n, p)
		c.RandNormal(r, 0, 1)
		wantTA := MatMulTransA(New(m, p), a, c)
		gotTA, s := poison(New(m, p)), r.Intn(m+1)
		matMulTransARows(gotTA, a, c, s, m)
		matMulTransARows(gotTA, a, c, 0, s)
		_, ok := bitsEqual(gotTA, wantTA)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelKernelsPanicLikeSerialOnBadShapes(t *testing.T) {
	bias := make([]float64, 2)
	for name, fn := range map[string]func(){
		"matmul":       func() { MatMul(New(2, 2), New(2, 3), New(2, 2)) },
		"transB":       func() { MatMulTransB(New(2, 2), New(2, 3), New(2, 2)) },
		"transA":       func() { MatMulTransA(New(2, 2), New(3, 2), New(2, 2)) },
		"destDim":      func() { MatMul(New(1, 1), New(2, 3), New(3, 2)) },
		"biasInner":    func() { MatMulBias(New(2, 2), New(2, 3), New(2, 2), bias, false) },
		"biasDestDim":  func() { MatMulBias(New(1, 2), New(2, 3), New(3, 2), bias, false) },
		"biasLen":      func() { MatMulBias(New(2, 2), New(2, 3), New(3, 2), bias[:1], true) },
		"gatedInner":   func() { MatMulGated(New(2, 2), New(2, 3), New(2, 2), New(2, 2)) },
		"gatedDestDim": func() { MatMulGated(New(1, 2), New(2, 3), New(3, 2), New(1, 2)) },
		"gateShape":    func() { MatMulGated(New(2, 2), New(2, 3), New(3, 2), New(2, 3)) },
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
	first := MatMul(New(512, 128), a, b)
	for trial := 0; trial < 5; trial++ {
		again := MatMul(New(512, 128), a, b)
		if !ApproxEqual(first, again, 0) {
			t.Fatal("matmul is not bitwise deterministic")
		}
	}
}

// concurrencyViolations lists what a file holds of the things a second
// parallelism mechanism would need: an import of sync, sync/atomic or
// runtime, or a go statement.
func concurrencyViolations(fset *token.FileSet, file *ast.File) []string {
	var out []string
	for _, imp := range file.Imports {
		switch path, _ := strconv.Unquote(imp.Path.Value); path {
		case "sync", "sync/atomic", "runtime":
			out = append(out, fset.Position(imp.Pos()).String()+": imports "+path)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			out = append(out, fset.Position(g.Pos()).String()+": go statement")
		}
		return true
	})
	return out
}

// TestNoGoroutineOrProcessWideGate: the package computes on the goroutine
// that calls it and keeps no state a caller elsewhere in the process could
// flip — no non-test file imports sync, sync/atomic or runtime, and none
// contains a go statement. Parallelism in the update is core's per-agent
// pool and nothing else.
func TestNoGoroutineOrProcessWideGate(t *testing.T) {
	fset := token.NewFileSet()
	// The guard must recognise what it forbids, or it passes by blindness.
	const bad = `package p

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var depth atomic.Int64

func fan(rows int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() { defer wg.Done(); fn(lo, rows) }()
	}
	wg.Wait()
}
`
	file, err := parser.ParseFile(fset, "bad.go", bad, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got := concurrencyViolations(fset, file); len(got) != 4 {
		t.Fatalf("guard found %d of the 4 planted violations: %v", len(got), got)
	}

	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, v := range concurrencyViolations(fset, file) {
			t.Error(v)
		}
	}
	if checked < 4 {
		t.Fatalf("guard parsed only %d files: it is not looking at internal/tensor", checked)
	}
}
