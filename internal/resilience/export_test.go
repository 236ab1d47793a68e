package resilience

import (
	"errors"
	"io"
	"os"
	"testing"
)

// LeaveTemp puts data on disk under the temp name WriteFileAtomic uses for
// path, and leaves it there: the state a process that dies before the rename
// leaves behind. The name is taken from a real WriteFileAtomic call that
// stops before writing, so it follows the writer's naming.
func LeaveTemp(t *testing.T, path string, data []byte) {
	t.Helper()
	var name string
	stop := errors.New("stop before writing")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		name = w.(*os.File).Name()
		return stop
	})
	if !errors.Is(err, stop) {
		t.Fatalf("WriteFileAtomic = %v, want the stop error", err)
	}
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
