//go:build !amd64

package tensor

func cpuVectorLanes() int { return 0 }

func rowsPanel(*rowArgs, int, int) int {
	panic("tensor: no resident row kernels on this architecture")
}

func logVectors(int, []float64, []float64) int {
	panic("tensor: no packed logarithm on this architecture")
}
