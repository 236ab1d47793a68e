package rollout

import "testing"

// TestNewActCoreRejectsBadShapes: a zero observation width used to build a
// core whose MaxRows divided by it; every width below one is refused up
// front, and the capacity is what the caller asked for.
func TestNewActCoreRejectsBadShapes(t *testing.T) {
	if got := NewActCore([]int{4, 6}, 5, 7).MaxRows(); got != 7 {
		t.Fatalf("MaxRows() = %d, want 7", got)
	}
	for name, fn := range map[string]func(){
		"no agents":      func() { NewActCore(nil, 5, 1) },
		"zero width":     func() { NewActCore([]int{0, 6}, 5, 1) },
		"later zero":     func() { NewActCore([]int{4, 0}, 5, 1) },
		"negative width": func() { NewActCore([]int{4, -1}, 5, 1) },
		"zero actions":   func() { NewActCore([]int{4}, 0, 1) },
		"zero capacity":  func() { NewActCore([]int{4}, 5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: NewActCore did not panic", name)
				}
			}()
			fn()
		}()
	}
}
