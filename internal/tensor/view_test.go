package tensor

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// TestColViewSharesStorage: a column view reads and writes its parent's
// elements through At, Set and Row, at the parent's pitch, and a view of a
// view keeps that pitch; a view of every column is the dense parent again.
func TestColViewSharesStorage(t *testing.T) {
	parent := New(3, 7)
	for i := range parent.Data {
		parent.Data[i] = float64(i)
	}
	v := parent.ColView(2, 5)
	if v.Rows != 3 || v.Cols != 3 || v.Pitch() != 7 {
		t.Fatalf("ColView(2, 5) of 3x7 is %dx%d at pitch %d", v.Rows, v.Cols, v.Pitch())
	}
	if got := v.Row(2); got[0] != 16 || got[2] != 18 || len(got) != 3 {
		t.Fatalf("row 2 of the view is %v, want [16 17 18]", got)
	}
	v.Set(1, 1, -1)
	if parent.At(1, 3) != -1 || v.At(1, 1) != -1 {
		t.Fatal("Set through the view did not reach the parent")
	}
	vv := v.ColView(1, 3)
	if vv.Pitch() != 7 || vv.At(2, 0) != 17 {
		t.Fatalf("a view of a view: pitch %d, At(2, 0) = %v", vv.Pitch(), vv.At(2, 0))
	}
	if whole := parent.ColView(0, 7); whole.Pitch() != 7 || len(whole.Data) != 21 {
		t.Fatalf("the view of every column is not dense: pitch %d, %d elements", whole.Pitch(), len(whole.Data))
	}
	if len(v.Data) != 2*7+3 || cap(v.Data) != len(v.Data) {
		t.Fatalf("the view spans %d elements, capacity %d: want its first to its last only", len(v.Data), cap(v.Data))
	}
}

// TestOverlap: storage is shared when the spans of two matrices' Data meet.
func TestOverlap(t *testing.T) {
	parent := New(4, 6)
	left, right := parent.ColView(0, 2), parent.ColView(2, 6)
	top, bottom := FromSlice(2, 6, parent.Data[:12]), FromSlice(2, 6, parent.Data[12:])
	for _, c := range []struct {
		a, b *Matrix
		want bool
	}{
		{parent, parent, true}, {parent, left, true}, {left, right, true},
		{top, bottom, false}, {top, parent, true}, {parent, New(4, 6), false}, {New(0, 0), parent, false},
	} {
		if Overlap(c.a, c.b) != c.want || Overlap(c.b, c.a) != c.want {
			t.Fatalf("Overlap(%dx%d at %p, %dx%d at %p) is not %v", c.a.Rows, c.a.Cols, c.a.Data, c.b.Rows, c.b.Cols, c.b.Data, c.want)
		}
	}
}

// TestProductsPanicOnOverlap: a product whose dst overlaps an operand
// panics instead of reading what it has already written.
func TestProductsPanicOnOverlap(t *testing.T) {
	sq := New(4, 4)
	wide := New(4, 8)
	for name, fn := range map[string]func(){
		"MatMul dst = a":         func() { MatMul(sq, sq, New(4, 4)) },
		"MatMul dst = b":         func() { MatMul(sq, New(4, 4), sq) },
		"MatMul dst in a view a": func() { MatMul(FromSlice(4, 1, wide.Data[8:12]), wide.ColView(0, 4), New(4, 1)) },
		"MatMulBias dst = a":     func() { MatMulBias(sq, sq, New(4, 4), make([]float64, 4), true) },
		"MatMulGated dst = b":    func() { MatMulGated(sq, New(4, 4), sq, New(4, 4)) },
		"MatMulTransA dst = a":   func() { MatMulTransA(sq, sq, New(4, 4)) },
		"MatMulTransB dst = a":   func() { MatMulTransB(sq, sq, New(4, 4)) },
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

// viewSupported are the exported functions that take a column view, and in
// the products the view is a, and MatMulTransA's b, only: dst and the other
// products' b are held to the rule below.
var viewSupported = map[string]bool{"At": true, "Set": true, "Row": true, "Pitch": true, "ColView": true, "Overlap": true, "SoftmaxRows": true}

// TestViewsOnlyWhereSupported: every exported function of the package that
// takes a Matrix, outside viewSupported, panics when any of its matrices is a
// column view — the package's source is read for the list, so a function
// added without a case here fails the test — and the products panic on a
// view in dst, or in b but for MatMulTransA's.
func TestViewsOnlyWhereSupported(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	view := func() *Matrix { return New(4, 9).ColView(2, 6) } // 4x4 at pitch 9
	d := func() *Matrix { return New(4, 4) }
	row := make([]float64, 4)
	calls := map[string][]func(){
		"FromSlice":        nil, // takes no Matrix: it makes a dense one
		"New":              nil,
		"Reshape":          {func() { Reshape(view(), 4, 4) }, func() { Reshape(view(), 100, 100) }},
		"Clone":            {func() { view().Clone() }},
		"CopyFrom":         {func() { view().CopyFrom(d()) }, func() { d().CopyFrom(view()) }},
		"Zero":             {func() { view().Zero() }},
		"Fill":             {func() { view().Fill(1) }},
		"String":           {func() { _ = view().String() }},
		"RandUniform":      {func() { view().RandUniform(rng, 0, 1) }},
		"RandNormal":       {func() { view().RandNormal(rng, 0, 1) }},
		"XavierInit":       {func() { view().XavierInit(rng, 4, 4) }},
		"MatMul":           {func() { MatMul(view(), d(), d()) }, func() { MatMul(d(), d(), view()) }},
		"MatMulBias":       {func() { MatMulBias(view(), d(), d(), row, true) }, func() { MatMulBias(d(), d(), view(), row, false) }},
		"MatMulGated":      {func() { MatMulGated(view(), d(), d(), d()) }, func() { MatMulGated(d(), d(), view(), d()) }, func() { MatMulGated(d(), d(), d(), view()) }},
		"MatMulTransA":     {func() { MatMulTransA(view(), d(), d()) }},
		"MatMulGatedConst": {func() { MatMulGatedConst(view(), 1, row, d()) }, func() { MatMulGatedConst(d(), 1, row, view()) }},
		"MatMulTransB":     {func() { MatMulTransB(view(), d(), d()) }, func() { MatMulTransB(d(), d(), view()) }},
		"TransposeRows":    {func() { TransposeRows(nil, view(), 0, 4) }, func() { TransposeRows(view(), d(), 0, 4) }},
		"Add":              {func() { Add(view(), d(), d()) }, func() { Add(d(), view(), d()) }, func() { Add(d(), d(), view()) }},
		"AddTransposed":    {func() { AddTransposed(view(), d()) }, func() { AddTransposed(d(), view()) }},
		"Scale":            {func() { view().Scale(2) }},
		"SumRows":          {func() { view().SumRows(nil) }},
		"SliceCols":        {func() { SliceCols(New(4, 2), view(), 0, 2) }, func() { SliceCols(New(4, 9).ColView(0, 2), d(), 0, 2) }},
		"ApproxEqual":      {func() { ApproxEqual(view(), d(), 0) }, func() { ApproxEqual(d(), view(), 0) }},
	}

	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() && takesMatrix(fn) {
				found[fn.Name.Name] = true
			}
		}
	}
	for name := range found {
		if _, ok := calls[name]; !ok && !viewSupported[name] {
			t.Errorf("%s takes a Matrix and has no case here: either it panics on a view (add the calls) or it is supported (add it to viewSupported and DESIGN.md §7)", name)
		}
	}
	for name, fns := range calls {
		if !found[name] {
			t.Errorf("%s has a case here but is not an exported function taking a Matrix", name)
		}
		for i, fn := range fns {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s, case %d: a column view did not panic", name, i)
					}
				}()
				fn()
			}()
		}
	}
	if len(found) < 20 {
		t.Fatalf("found only %d exported functions taking a Matrix: the source scan is not looking at internal/tensor", len(found))
	}
}

// takesMatrix reports whether fn has a *Matrix receiver, parameter or
// result.
func takesMatrix(fn *ast.FuncDecl) bool {
	isMatrix := func(e ast.Expr) bool {
		if el, ok := e.(*ast.Ellipsis); ok {
			e = el.Elt
		}
		star, ok := e.(*ast.StarExpr)
		if !ok {
			return false
		}
		id, ok := star.X.(*ast.Ident)
		return ok && id.Name == "Matrix"
	}
	for _, list := range []*ast.FieldList{fn.Recv, fn.Type.Params, fn.Type.Results} {
		if list == nil {
			continue
		}
		for _, f := range list.List {
			if isMatrix(f.Type) {
				return true
			}
		}
	}
	return false
}
