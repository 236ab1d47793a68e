package marlperf

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEntryPointsAreTheBinaries keeps one front door: the binaries under
// cmd/ are the module's only entry points. The root directory holds tests
// only, so no library facade grows beside internal/, and no package main
// lives outside cmd/. A directory with its own go.mod (bench/) is another
// module and is not scanned.
func TestEntryPointsAreTheBinaries(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			t.Errorf("%s: the root directory holds tests only; library code goes under internal/, commands under cmd/", path)
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" && !strings.HasPrefix(dir, "cmd/") {
			t.Errorf("%s: package main outside cmd/; the binaries under cmd/ are the only entry points", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
