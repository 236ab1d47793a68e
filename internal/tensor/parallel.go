package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The paper runs network phases (action selection, target-Q, Q/P-loss
// backprop) on a GPU while the mini-batch sampling phase stays CPU-bound
// and single-threaded. To mirror that split on a CPU-only substrate, the
// dense kernels below fan large matmuls out across cores — playing the role
// of the parallel device — while the replay gather paths remain serial.

// parallelThreshold is the approximate multiply-add count below which
// splitting a matmul across goroutines costs more than it saves.
const parallelThreshold = 1 << 17

// coarseDepth counts how many coarse-grained parallel regions (per-agent
// update workers) are active. While non-zero, the row-parallel kernels run
// serially: the cores are already busy with one matmul per agent, and
// nesting goroutine fan-out inside them only adds scheduling overhead.
// Row ownership is identical either way, so results are bit-identical.
var coarseDepth atomic.Int64

// BeginCoarseParallel marks the start of a coarse-grained parallel region.
// Every call must be paired with EndCoarseParallel.
func BeginCoarseParallel() { coarseDepth.Add(1) }

// EndCoarseParallel marks the end of a coarse-grained parallel region.
func EndCoarseParallel() {
	if coarseDepth.Add(-1) < 0 {
		panic("tensor: EndCoarseParallel without matching Begin")
	}
}

// maxWorkers caps the worker count for one kernel invocation.
func maxWorkers(rows int) int {
	w := runtime.GOMAXPROCS(0)
	if w > rows {
		w = rows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// serialRows reports whether a product of the given size runs on the calling
// goroutine. The ...Parallel entry points ask before they build the closure
// parallelRows needs, so a small product — every one-row acting forward, and
// everything at one core — costs no allocation and no scheduler lock.
func serialRows(rows, flops int) bool {
	return flops < parallelThreshold || coarseDepth.Load() > 0 || maxWorkers(rows) == 1
}

// parallelRows runs fn over [0, rows) split into contiguous chunks, one per
// worker. Each row is owned by exactly one worker, so results are
// deterministic.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := maxWorkers(rows)
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMulParallel computes dst = a × b like MatMul, fanning row blocks out
// across cores for large inputs. dst must not alias a or b.
func MatMulParallel(dst, a, b *Matrix) *Matrix {
	checkMatMul(dst, a, b)
	if serialRows(dst.Rows, a.Rows*a.Cols*b.Cols) {
		matMulRows(dst, a, b, nil, false, nil, 0, dst.Rows)
	} else {
		parallelRows(dst.Rows, func(lo, hi int) { matMulRows(dst, a, b, nil, false, nil, lo, hi) })
	}
	return dst
}

// MatMulBiasParallel computes dst = a × b + bias like MatMulParallel followed
// by AddRowVector, and with relu dst = max(a × b + bias, 0) like ReLU after
// that, bit for bit — but in one pass, finishing each row while it is in L1.
// It is a dense layer's forward, with or without its activation.
func MatMulBiasParallel(dst, a, b *Matrix, bias []float64, relu bool) *Matrix {
	checkMatMul(dst, a, b)
	if len(bias) != dst.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasParallel bias len %d want %d", len(bias), dst.Cols))
	}
	if serialRows(dst.Rows, a.Rows*a.Cols*b.Cols) {
		matMulRows(dst, a, b, bias, relu, nil, 0, dst.Rows)
	} else {
		parallelRows(dst.Rows, func(lo, hi int) { matMulRows(dst, a, b, bias, relu, nil, lo, hi) })
	}
	return dst
}

// MatMulGatedParallel computes dst = a × b like MatMulParallel and then
// clears every element whose counterpart in gate, a matrix of dst's shape,
// has zero bits — ReLUGrad(dst, dst, gate), bit for bit — but in one pass,
// gating each row before it is stored. With gate the output a ReLU retained
// and b the transposed weights of the layer above it, it is that layer's
// input gradient taken back through the ReLU.
func MatMulGatedParallel(dst, a, b, gate *Matrix) *Matrix {
	checkMatMul(dst, a, b)
	assertSameShape("MatMulGatedParallel gate", gate, dst)
	if serialRows(dst.Rows, a.Rows*a.Cols*b.Cols) {
		matMulRows(dst, a, b, nil, false, gate, 0, dst.Rows)
	} else {
		parallelRows(dst.Rows, func(lo, hi int) { matMulRows(dst, a, b, nil, false, gate, lo, hi) })
	}
	return dst
}

// MatMulTransAParallel computes dst = aᵀ × b like MatMulTransA,
// parallelized over dst rows (columns of a) for large inputs.
func MatMulTransAParallel(dst, a, b *Matrix) *Matrix {
	checkMatMulTransA(dst, a, b)
	if serialRows(dst.Rows, a.Rows*a.Cols*b.Cols) {
		matMulTransARows(dst, a, b, 0, dst.Rows)
	} else {
		parallelRows(dst.Rows, func(lo, hi int) { matMulTransARows(dst, a, b, lo, hi) })
	}
	return dst
}
