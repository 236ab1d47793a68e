package tensor

import "math"

// The matrix-product kernels. There are two loop nests, matMulRows (a × b)
// and matMulTransARows (aᵀ × b); a × bᵀ is a × b against a transposed copy of
// b (TransposeRows), so it has no nest of its own. Each nest computes a
// contiguous range of dst rows, and the five entry points (matrix.go) run it
// over every row on the calling goroutine. There is no other product loop in
// the package, and no goroutine: parallelism in the update is the per-agent
// pool in core, one level up.
//
// Both nests are rows of one shape — a dst row is a sum of rows of b, each
// times one multiplier from a — and have one body per vector width the CPU
// offers (vectorLanes): the Go loops below, over the four-deep multiply-add
// step axpy4Blocks, are the portable body; on amd64 with AVX2 or AVX-512, and
// FMA, residentRows hands the same rows to assembly that keeps a dst row in
// registers for its whole sum (rows_amd64.s).
//
// Contract, shared by all three products and pinned by kernels_test.go
// against the scalar loops they replaced, on every body:
//
//   - Every dst element is the sum over the inner index k, in ascending k,
//     starting from +0, of a·b products, each step d = fma(a, b, d): the
//     product and the add rounded once, together, as math.FMA rounds them —
//     in Go (math.FMA, one instruction where the CPU has FMA, exact software
//     where it does not) and in assembly (VFMADD231PD) alike, so the bits do
//     not depend on the body or the architecture. Blocking and vector lanes
//     only change which elements are in flight together, never the order of
//     the steps into one element.
//   - An element therefore depends on its own row of a (column, for
//     TransA) and its own column of b (row, for TransB) only: row i of an
//     m-row product has the bits of the one-row product of row i, any split
//     of [lo, hi) across calls gives the same dst, and a × bᵀ against rows
//     [lo, hi) of b is columns [lo, hi) of the whole product.
//   - One rule about zeros: a product whose multiplier — the element of a,
//     in all three products — is exactly zero, of either sign, is left out of
//     the sum. Every such product and no other: a NaN or an infinite
//     multiplier is not a zero. For finite operands the product left out is
//     ±0, and adding ±0 to a sum that started at +0 (which is never -0) is
//     the identity, so the rule cannot be seen in the bits: ReLU outputs and
//     ReLU-masked gradients are zero about half the time, and this is what
//     lets the kernels do only the other half. For non-finite operands it can
//     be seen: 0·Inf and 0·NaN would be NaN and never reach the sum, so a
//     zero multiplier hides whatever stands in its row of b. No caller relies
//     on that either way (core's watchdog scans parameters, not products).
//     Where a result is NaN it is NaN on every path, but which NaN — the
//     payload, when two different ones meet in a multiply — follows the
//     operand order of whichever instruction ran, and neither the Go compiler
//     nor this contract fixes that.

// matMulRows computes rows [lo, hi) of dst = a × b. A non-nil bias (one value
// per dst column) is added to each finished row — after the whole k sum, as
// a separate pass over the matrix would — and with relu the row then goes
// through ReLU; a non-nil gate, of dst's shape, then clears the elements
// whose gate has zero bits, as ReLUGrad against it would. The resident bodies
// do all three in the registers that hold the row; the Go body, which runs k
// four deep (axpy4Blocks) so that a row is loaded and stored once per four
// rows of b, does them while the row is still in L1. The rows of a are its
// pitch apart: a may be a column view.
func matMulRows(dst, a, b *Matrix, bias []float64, relu bool, gate *Matrix, lo, hi int) {
	inner, n, ap := a.Cols, b.Cols, a.Pitch()
	if lanes := vectorLanes; lanes != 0 && lo < hi && inner > 0 && n > 0 {
		p := rowArgs{rows: hi - lo, dStep: n, aStep: ap, aStride: 1, k: inner, ldb: n}
		if relu {
			p.flags = flagReLU
		}
		var gated []float64
		if gate != nil {
			gated = gate.Data[lo*n : hi*n]
		}
		residentRows(lanes, dst.Data[lo*n:hi*n], a.Data[lo*ap:], b.Data, bias, gated, n, p)
		return
	}
	blocks := inner / 4
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Data[i*n : (i+1)*n]
		clear(drow)
		axpy4Blocks(drow, n, arow, 1, b.Data, blocks, 0, 4, 4*n)
		for k := 4 * blocks; k < inner; k++ {
			if av := arow[k]; av != 0 {
				AXPY(drow, av, b.Data[k*n:(k+1)*n])
			}
		}
		if bias != nil {
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
		if gate != nil {
			ReLUGrad(drow, drow, gate.Data[i*n:(i+1)*n])
		}
	}
}

// transAChunkFloats is how much of b the resident aᵀ × b walks per pass over
// the dst rows: 16 KiB, so that the chunk and the same rows of a stay in L1
// while the dst rows stream past them.
const transAChunkFloats = 2048

// matMulTransARows computes rows [lo, hi) of dst = aᵀ × b, i.e. the products
// of columns [lo, hi) of a with b. The shared row index k runs outermost: in
// the Go body four rows at a time, so that the small dst block stays in L1
// across the whole batch and a is read along its rows instead of down a
// column; in the resident bodies a chunk of rows at a time, with each dst row
// held in registers across the chunk. As in matMulRows, a may be a view.
func matMulTransARows(dst, a, b *Matrix, lo, hi int) {
	outer, ap, n := a.Rows, a.Pitch(), b.Cols
	drows := dst.Data[lo*n : hi*n]
	if lanes := vectorLanes; lanes != 0 && lo < hi && outer > 0 && n > 0 {
		chunk := max(1, transAChunkFloats/n)
		for k := 0; k < outer; k += chunk {
			p := rowArgs{rows: hi - lo, dStep: n, aStep: 1, aStride: ap, k: min(chunk, outer-k), ldb: n}
			if k > 0 {
				p.flags = flagAccumulate
			}
			residentRows(lanes, drows, a.Data[k*ap+lo:], b.Data[k*n:], nil, nil, n, p)
		}
		return
	}
	clear(drows)
	k := 0
	for ; k+4 <= outer; k += 4 {
		axpy4Blocks(drows, n, a.Data[k*ap+lo:(k+3)*ap+hi], ap, b.Data[k*n:(k+4)*n], hi-lo, n, 1, 0)
	}
	for ; k < outer; k++ {
		arow := a.Row(k)
		brow := b.Data[k*n : (k+1)*n]
		for i := lo; i < hi; i++ {
			if av := arow[i]; av != 0 {
				AXPY(dst.Data[i*n:(i+1)*n], av, brow)
			}
		}
	}
}

// vectorLanes selects the body of both nests: the float64 lanes of the
// resident assembly's vectors, 8 (AVX-512) or 4 (AVX2), or 0 for the Go
// loops. It is set once, from what the CPU and the OS report
// (cpuVectorLanes), and only the tests ever change it: every body produces
// the same bits, so there is nothing for a user to choose.
var vectorLanes = cpuVectorLanes()

// KernelPath names the body this process runs, "avx512", "avx2" or "go", for
// benchmark provenance: throughput depends on it, results do not.
func KernelPath() string {
	switch vectorLanes {
	case 8:
		return "avx512"
	case 4:
		return "avx2"
	}
	return "go"
}

// rowArgs is what a resident row kernel (rows_amd64.s) is called with: for
// r in [0, rows) and j in [0, w),
//
//	d[r·dStep+j] = [d[r·dStep+j] +] Σ a[r·aStep+k·aStride]·b[k·ldb+j] [+ bias[j]]
//
// summed over k in [0, k), ascending, without the products whose multiplier
// (the element of a) is ±0. The sum starts from d with flagAccumulate and
// from +0 without; bias may be nil; with flagReLU the biased sum goes through
// ReLU; and where gate is not nil the element becomes +0 if gate[r·dStep+j]
// has zero bits. The assembly reads the fields at the offsets go_asm.h gives
// it.
type rowArgs struct {
	d, a, b, bias, gate *float64
	rows                int
	dStep, aStep        int // from one row to the next, in elements
	aStride, ldb        int // from one k to the next, in elements
	k, w                int
	flags               int

	// The kernel's own: the byte offsets of eight consecutive multipliers
	// from the first, where they are not contiguous; the row it has
	// reached, not as pointers because they end one step beyond the
	// operands; and whether it masks its adds.
	aLanes       [8]int
	dRow, aRow   uintptr
	left, masked int
}

const (
	flagAccumulate = 1 << iota
	flagReLU
)

// residentRows runs the product p describes, n columns wide, on the resident
// assembly of the given vector width: d, a, b, bias and gate (the last two
// may be nil; a gate is laid out as d is) are the operands from their first
// element on, and p carries everything but them and the width of one call.
// The columns go
// to the kernels in panels (rowsPanel picks each one's kernel and width): the
// wide kernel keeps eight vectors of one row in registers and steps only
// through the multipliers that are not zero; the narrow kernel has one
// vector, masked down to the panel's columns, per row and eight rows in
// flight. No panel reads or writes a column outside itself, so the split is
// invisible in the result.
func residentRows(lanes int, d, a, b, bias, gate []float64, n int, p rowArgs) {
	// The assembly checks nothing: the reach of the last row, the last k and
	// the last column is checked here.
	_, _, _ = d[(p.rows-1)*p.dStep+n-1], a[(p.rows-1)*p.aStep+(p.k-1)*p.aStride], b[(p.k-1)*p.ldb+n-1]
	if bias != nil {
		_ = bias[n-1]
	}
	if gate != nil {
		_ = gate[(p.rows-1)*p.dStep+n-1]
	}
	p.a = &a[0]
	if p.aStride != 1 {
		for i := range p.aLanes {
			p.aLanes[i] = 8 * i * p.aStride
		}
	}
	for j := 0; j < n; {
		p.d, p.b = &d[j], &b[j]
		if bias != nil {
			p.bias = &bias[j]
		}
		if gate != nil {
			p.gate = &gate[j]
		}
		j += rowsPanel(&p, lanes, n-j)
	}
}

// axpy4Blocks is the multiply-add step of the Go body: count steps of
//
//	d[j] = fma(a3, b3[j], fma(a2, b2[j], fma(a1, b1[j], fma(a0, b0[j], d[j])))),  j in [0, n)
//
// where a0..a3 = a[0], a[aStride], a[2·aStride], a[3·aStride] and b0..b3 are
// the four consecutive n-wide rows at the front of b — without the terms
// whose multiplier is ±0: a step that has all four runs d through them in one
// pass, any other adds the terms it has one multiplier at a time. Between
// steps d, a and b move forward by dStep, aStep and bStep elements:
// matMulRows keeps d and walks four columns of a and four rows of b per step,
// matMulTransARows keeps b and walks one row of d and one column of a.
func axpy4Blocks(d []float64, n int, a []float64, aStride int, b []float64, count, dStep, aStep, bStep int) {
	if n == 0 {
		return
	}
	for ; count > 0; count-- {
		a0, a1, a2, a3 := a[0], a[aStride], a[2*aStride], a[3*aStride]
		dj, b0, b1, b2, b3 := d[:n], b[:n], b[n:][:n], b[2*n:][:n], b[3*n:][:n]
		// x != 0 is false for -0 and true for a NaN: exactly "not a zero".
		if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
			for j, dv := range dj {
				dv = math.FMA(a0, b0[j], dv)
				dv = math.FMA(a1, b1[j], dv)
				dv = math.FMA(a2, b2[j], dv)
				dv = math.FMA(a3, b3[j], dv)
				dj[j] = dv
			}
		} else {
			if a0 != 0 {
				AXPY(dj, a0, b0)
			}
			if a1 != 0 {
				AXPY(dj, a1, b1)
			}
			if a2 != 0 {
				AXPY(dj, a2, b2)
			}
			if a3 != 0 {
				AXPY(dj, a3, b3)
			}
		}
		if count > 1 {
			d, a, b = d[dStep:], a[aStep:], b[bStep:]
		}
	}
}
