//go:build !amd64

package tensor

func cpuHasAVX2() bool { return false }

func axpy4BlocksAVX2(d *float64, n int, a *float64, aStride int, b *float64, count, dStep, aStep, bStep int) {
	panic("tensor: axpy4BlocksAVX2 called on a CPU without AVX2")
}
