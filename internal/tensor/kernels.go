package tensor

import "math"

// The matrix-product kernels. There are two loop nests, matMulRows (a × b)
// and matMulTransARows (aᵀ × b), both over one multiply-add primitive,
// axpy4Blocks; a × bᵀ is a × b against a transposed copy of b (TransposeRows),
// so it has no nest of its own. Each nest computes a contiguous range of dst
// rows: the serial entry points (matrix.go) run it over every row and
// parallelRows (parallel.go) over one chunk per worker. There is no other
// product loop in the package.
//
// Contract, shared by all three products and pinned by kernels_test.go
// against the scalar loops they replaced, on both bodies of the primitive:
//
//   - Every dst element is the sum over the inner index k, in ascending k,
//     starting from +0, of a·b products; each multiply and each add is
//     rounded once (no fused multiply-add on amd64, in Go or in assembly; see
//     DESIGN.md §7 for arm64). Blocking and vector lanes only change which
//     elements are in flight together, never the order of additions into one
//     element.
//   - An element therefore depends on its own row of a (column, for
//     TransA) and its own column of b (row, for TransB) only: row i of an
//     m-row product has the bits of the one-row product of row i, any split
//     of [lo, hi) across calls gives the same dst, and a × bᵀ against rows
//     [lo, hi) of b is columns [lo, hi) of the whole product.
//   - For finite operands a zero multiplier contributes ±0, which leaves a
//     sum that started at +0 unchanged, so all three products may skip work
//     for zeros — but only for a whole block of four multipliers that are all
//     exactly zero (either sign). For non-finite operands that is visible:
//     0·Inf and 0·NaN are NaN, and they reach the sum unless all four
//     multipliers of their block are zero. MatMulTransB's multipliers are
//     the elements of a, as MatMul's are. No caller relies on zeros masking
//     non-finite values. Where a result is NaN it is NaN on every path, but
//     which NaN — the payload, when two different ones meet in a multiply —
//     follows the operand order of whichever instruction ran, and neither
//     the Go compiler nor this contract fixes that.

// matMulRows computes rows [lo, hi) of dst = a × b. The k loop runs four deep
// (axpy4Blocks), so a dst row is loaded and stored once per four rows of b.
// A non-nil bias (one value per dst column) is added to each finished row —
// after the whole k sum, as a separate pass over the matrix would — and with
// relu the row then goes through ReLU, all while it is still in L1.
func matMulRows(dst, a, b *Matrix, bias []float64, relu bool, lo, hi int) {
	inner, n := a.Cols, b.Cols
	blocks := inner / 4
	for i := lo; i < hi; i++ {
		arow := a.Data[i*inner : (i+1)*inner]
		drow := dst.Data[i*n : (i+1)*n]
		clear(drow)
		axpy4Blocks(drow, n, arow, 1, b.Data, blocks, 0, 4, 4*n)
		for k := 4 * blocks; k < inner; k++ {
			if av := arow[k]; av != 0 {
				AXPY(drow, av, b.Data[k*n:(k+1)*n])
			}
		}
		if bias == nil {
			continue
		}
		brow := bias[:len(drow)]
		if relu {
			for j, v := range drow {
				drow[j] = ReLU(v + brow[j])
			}
		} else {
			for j := range drow {
				drow[j] += brow[j]
			}
		}
	}
}

// matMulTransARows computes rows [lo, hi) of dst = aᵀ × b, i.e. the products
// of columns [lo, hi) of a with b. The shared row index k runs outermost,
// four rows at a time: the small dst block stays in L1 across the whole
// batch and a is read along its rows instead of down a column.
func matMulTransARows(dst, a, b *Matrix, lo, hi int) {
	outer, ac, n := a.Rows, a.Cols, b.Cols
	drows := dst.Data[lo*n : hi*n]
	clear(drows)
	k := 0
	for ; k+4 <= outer; k += 4 {
		axpy4Blocks(drows, n, a.Data[k*ac+lo:(k+3)*ac+hi], ac, b.Data[k*n:(k+4)*n], hi-lo, n, 1, 0)
	}
	for ; k < outer; k++ {
		arow := a.Data[k*ac : (k+1)*ac]
		brow := b.Data[k*n : (k+1)*n]
		for i := lo; i < hi; i++ {
			if av := arow[i]; av != 0 {
				AXPY(dst.Data[i*n:(i+1)*n], av, brow)
			}
		}
	}
}

// useAVX2 selects axpy4Blocks' assembly body. It is set once, from what the
// CPU and the OS report (cpuHasAVX2), and only the tests ever change it: both
// bodies produce the same bits, so there is nothing for a user to choose.
var useAVX2 = cpuHasAVX2()

// KernelPath names the axpy4Blocks body this process runs, "avx2" or "go",
// for benchmark provenance: throughput depends on it, results do not.
func KernelPath() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// axpy4Blocks is the multiply-add primitive under both product kernels:
// count steps of
//
//	d[j] = (((d[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j],  j in [0, n)
//
// where a0..a3 = a[0], a[aStride], a[2·aStride], a[3·aStride] and b0..b3 are
// the four consecutive n-wide rows at the front of b. A step whose four
// multipliers are all ±0 is skipped. Between steps d, a and b move forward
// by dStep, aStep and bStep elements: matMulRows keeps d and walks four
// columns of a and four rows of b per step, matMulTransARows keeps b and
// walks one row of d and one column of a. On amd64 with AVX2 the whole call
// runs in axpy4_amd64.s, four columns j to a vector register — the same
// operations on each element in the same order, so the same bits.
func axpy4Blocks(d []float64, n int, a []float64, aStride int, b []float64, count, dStep, aStep, bStep int) {
	if count <= 0 || n == 0 {
		return
	}
	if useAVX2 {
		// The assembly checks nothing: the last step's reach is checked here.
		last := count - 1
		_, _, _ = d[last*dStep+n-1], a[last*aStep+3*aStride], b[last*bStep+4*n-1]
		axpy4BlocksAVX2(&d[0], n, &a[0], aStride, &b[0], count, dStep, aStep, bStep)
		return
	}
	for ; count > 0; count-- {
		a0, a1, a2, a3 := a[0], a[aStride], a[2*aStride], a[3*aStride]
		// One test on the OR of the bits, signs shifted out: on a ReLU output
		// or a masked gradient each multiplier is zero about half the time,
		// and four comparisons would be four branches nobody can predict.
		if (math.Float64bits(a0)|math.Float64bits(a1)|math.Float64bits(a2)|math.Float64bits(a3))<<1 != 0 {
			dj, b0, b1, b2, b3 := d[:n], b[:n], b[n:][:n], b[2*n:][:n], b[3*n:][:n]
			for j, dv := range dj {
				dv += a0 * b0[j]
				dv += a1 * b1[j]
				dv += a2 * b2[j]
				dv += a3 * b3[j]
				dj[j] = dv
			}
		}
		if count > 1 {
			d, a, b = d[dStep:], a[aStep:], b[bStep:]
		}
	}
}
