package tensor

// Implemented in axpy4_amd64.s.

func cpuHasAVX2() bool

//go:noescape
func axpy4BlocksAVX2(d *float64, n int, a *float64, aStride int, b *float64, count, dStep, aStep, bStep int)
