package marlperf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerless lists the exported identifiers TestEveryExportHasACaller lets
// stand without a caller in non-test code, each with the reason it stays:
// "test" (an oracle, fixture or accessor the tests use), "interface" (called
// through an interface the standard library defines) or "next-pass"
// (callerless, to be deleted with its tests). The list only shrinks: an
// entry that gains a caller or is deleted fails the test until it is removed
// here.
var callerless = map[string]string{
	"internal/netretry.outageError.Unwrap":  "interface",
	"internal/profiler.Profile.MarshalJSON": "interface",

	"internal/expstore.Source.Plan":        "test",
	"internal/profiler.Profile.EventCount": "test",
	"internal/tensor.ApproxEqual":          "test",
	"internal/tensor.FromSlice":            "test",
	"internal/tensor.Matrix.At":            "test",
	"internal/tensor.Matrix.Clone":         "test",
	"internal/tensor.Matrix.RandNormal":    "test",
	"internal/tensor.SliceCols":            "test",
}

// TestEveryExportHasACaller is a ratchet against code nothing runs: every
// exported func, method, type, var and const declared in a non-test file of
// a library package (not main, and not a test-support package, one that
// imports "testing") must be referenced from some non-test file of the tree
// — bench/ included — or be listed in callerless.
//
// Matching is by name only: a reference to any identifier of the same name,
// in any package, counts as a caller. So this catches an export nobody
// names, but it does not prove that a name with callers is live.
func TestEveryExportHasACaller(t *testing.T) {
	declared, referenced := scanExports(t, ".")
	var missing []string
	for key, name := range declared {
		if !referenced[name] && callerless[key] == "" {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s has no caller outside tests: delete it, or add it to callerless with the reason it stays", key)
	}
	for key := range callerless {
		name, ok := declared[key]
		switch {
		case !ok:
			t.Errorf("callerless entry %s is no longer declared: remove it", key)
		case referenced[name]:
			t.Errorf("callerless entry %s has a caller now: remove it", key)
		}
	}
}

// scanExports parses every .go file under root. declared maps each exported
// declaration of a library package ("internal/tensor.FromSlice", methods as
// "internal/resilience.Store.Dir") to its bare name; referenced holds every
// identifier name that non-test files use other than to declare something.
func scanExports(t *testing.T, root string) (declared map[string]string, referenced map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	type pkg struct {
		library bool // not main, imports no "testing"
		files   []*ast.File
	}
	pkgs := map[string]*pkg{}
	referenced = map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		collectReferences(f, referenced)
		dir := filepath.ToSlash(filepath.Dir(path))
		p := pkgs[dir]
		if p == nil {
			p = &pkg{library: true}
			pkgs[dir] = p
		}
		if f.Name.Name == "main" {
			p.library = false
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"testing"` {
				p.library = false
			}
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared = map[string]string{}
	for dir, p := range pkgs {
		if !p.library {
			continue
		}
		prefix := dir + "."
		add := func(id *ast.Ident, recv string) {
			if id.IsExported() {
				declared[prefix+recv+id.Name] = id.Name
			}
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					recv := ""
					if d.Recv != nil {
						recv = receiverType(d.Recv.List[0].Type) + "."
					}
					add(d.Name, recv)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, "")
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, "")
							}
						}
					}
				}
			}
		}
	}
	return declared, referenced
}

// collectReferences adds to names every identifier f uses, leaving out the
// ones that declare: top-level and method names, type and value spec names,
// receivers, parameters, results and struct fields. Interface method names
// stay in, since an interface names the methods its callers reach through
// it.
func collectReferences(f *ast.File, names map[string]bool) {
	declaring := map[*ast.Ident]bool{}
	fields := func(list *ast.FieldList) {
		if list == nil {
			return
		}
		for _, field := range list.List {
			for _, id := range field.Names {
				declaring[id] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			declaring[n.Name] = true
			if n.Recv != nil { // its name and its type
				ast.Inspect(n.Recv, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						declaring[id] = true
					}
					return true
				})
			}
		case *ast.TypeSpec:
			declaring[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declaring[id] = true
			}
		case *ast.FuncType:
			fields(n.Params)
			fields(n.Results)
		case *ast.StructType:
			fields(n.Fields)
		case *ast.Ident:
			if !declaring[n] {
				names[n.Name] = true
			}
		}
		return true
	})
}

// receiverType returns the type name of a method receiver expression
// (T, *T, T[P] or *T[P]).
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
