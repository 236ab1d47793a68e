//go:build !amd64

package rowmem

// Prefetch is a hint; without an assembly body it does nothing.
func Prefetch(row []float64) {}
