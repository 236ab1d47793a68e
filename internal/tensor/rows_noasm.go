//go:build !amd64

package tensor

func cpuVectorLanes() int { return 0 }

func rowsPanel(*rowArgs, int, int) int {
	panic("tensor: no resident row kernels on this architecture")
}

func logVectors(int, []float64, []float64) int {
	panic("tensor: no packed logarithm on this architecture")
}

func expVectors(int, []float64, []float64) int {
	panic("tensor: no packed exponential on this architecture")
}

func softmaxPass(int, bool, []float64, int, []float64, int, int) {
	panic("tensor: no packed softmax on this architecture")
}

func adamVectors(int, *adamArgs) {
	panic("tensor: no resident Adam step on this architecture")
}

func polyakVectors(int, []float64, []float64, float64) {
	panic("tensor: no resident soft update on this architecture")
}
