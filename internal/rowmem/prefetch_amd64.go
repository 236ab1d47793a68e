package rowmem

// Prefetch starts loading every cache line of row into L1 and returns
// without waiting for any of them. Implemented in prefetch_amd64.s.
//
//go:noescape
func Prefetch(row []float64)
