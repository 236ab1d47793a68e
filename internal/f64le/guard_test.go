package f64le

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// This package is the program's one float↔bytes codec, netretry.ReadBody
// its one HTTP body reader and internal/frame its one checksummer. The
// guard parses every non-test source file under internal/ and fails when a
// second one of any grows back:
//
//   - a loop whose body both names binary.LittleEndian and calls
//     math.Float64bits or math.Float64frombits — a per-float codec —
//     anywhere outside this package;
//   - io.ReadAll (or ioutil.ReadAll) over an expression that selects a
//     .Body — an unsized, uncapped read of a request or response;
//   - an import of hash/crc32 anywhere outside internal/frame — a
//     hand-rolled seal or trailer check.

// selectorIs reports whether n is the selector pkg.name.
func selectorIs(n ast.Node, pkg, name string) bool {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// mentions reports whether the subtree at root holds a node match accepts.
func mentions(root ast.Node, match func(ast.Node) bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n != nil && match(n) {
			found = true
		}
		return !found
	})
	return found
}

// violations returns one message per forbidden construct in file, which
// belongs to the package in directory pkg.
func violations(fset *token.FileSet, file *ast.File, pkg string) []string {
	var out []string
	report := func(n ast.Node, msg string) {
		out = append(out, fset.Position(n.Pos()).String()+": "+msg)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			if n.Path.Value == `"hash/crc32"` && pkg != "frame" {
				report(n, "hash/crc32 outside internal/frame: seal and unseal through frame")
			}
		case *ast.ForStmt, *ast.RangeStmt:
			if pkg == "f64le" {
				break
			}
			var body *ast.BlockStmt
			if f, ok := n.(*ast.ForStmt); ok {
				body = f.Body
			} else {
				body = n.(*ast.RangeStmt).Body
			}
			le := mentions(body, func(m ast.Node) bool { return selectorIs(m, "binary", "LittleEndian") })
			bits := mentions(body, func(m ast.Node) bool {
				return selectorIs(m, "math", "Float64bits") || selectorIs(m, "math", "Float64frombits")
			})
			if le && bits {
				report(n, "per-float little-endian loop: use f64le.Put/Get/Floats/Bytes")
				return false // one report per outermost loop
			}
		case *ast.CallExpr:
			if !selectorIs(n.Fun, "io", "ReadAll") && !selectorIs(n.Fun, "ioutil", "ReadAll") {
				break
			}
			for _, arg := range n.Args {
				if mentions(arg, func(m ast.Node) bool {
					sel, ok := m.(*ast.SelectorExpr)
					return ok && sel.Sel.Name == "Body"
				}) {
					report(n, "io.ReadAll over an HTTP body: use netretry.ReadBody")
				}
			}
		}
		return true
	})
	return out
}

func TestNoSecondCodecOrBodyReader(t *testing.T) {
	const root = ".." // internal/
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, v := range violations(fset, file, filepath.Base(filepath.Dir(path))) {
			t.Error(v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("guard parsed only %d files under %s: it is not looking at the tree", files, root)
	}
}

// The guard must recognise what it forbids, or it passes by blindness.
func TestGuardFlagsKnownViolations(t *testing.T) {
	const src = `package p

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"net/http"
)

func enc(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func dec(dst []float64, b []byte) {
	for i := 0; i < len(dst); i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

func handler(w http.ResponseWriter, r *http.Request) {
	_, _ = io.ReadAll(io.LimitReader(r.Body, 1<<20))
}

func seal(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func fine(r io.Reader, b []byte) uint64 {
	_, _ = io.ReadAll(r)
	for range b {
		_ = binary.LittleEndian.Uint32(b)
	}
	return math.Float64bits(1)
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "bad.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	got := violations(fset, file, "p")
	if len(got) != 4 {
		t.Fatalf("guard found %d violations in the known-bad source, want 4 (two loops, one body read, one crc32 import):\n%s", len(got), strings.Join(got, "\n"))
	}
	if got := violations(fset, file, "f64le"); len(got) != 2 {
		t.Fatalf("with float loops allowed (this package) the guard found %d violations, want the body read and the import", len(got))
	}
	if got := violations(fset, file, "frame"); len(got) != 3 {
		t.Fatalf("with crc32 allowed (internal/frame) the guard found %d violations, want the loops and the body read", len(got))
	}
}
