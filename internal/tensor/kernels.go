package tensor

// The three matrix-product kernels. Each computes a contiguous range of dst
// rows, so the serial entry points (matrix.go) run them over every row and
// parallelRows (parallel.go) over one chunk per worker; there is no other
// product loop in the package.
//
// Contract, shared by all three and pinned by kernels_test.go against the
// scalar loops they replaced:
//
//   - Every dst element is the sum over the inner index k, in ascending k,
//     starting from +0, of a·b products; each multiply and each add is
//     rounded once (no fused multiply-add on amd64; see DESIGN.md §7 for
//     arm64). Blocking only changes which elements are in flight together,
//     never the order of additions into one element.
//   - An element therefore depends on its own row of a (column, for
//     TransA) and its own column of b only: row i of an m-row product has
//     the bits of the one-row product of row i, and any split of [lo, hi)
//     across calls gives the same dst.
//   - For finite operands a zero multiplier contributes ±0, which leaves a
//     sum that started at +0 unchanged, so MatMul and MatMulTransA may skip
//     work for zeros — but only for a whole block of four multipliers that
//     are all exactly zero (either sign). For non-finite operands that is
//     visible: 0·Inf and 0·NaN are NaN, and they reach the sum unless all
//     four multipliers of their block are zero. MatMulTransB never skips.
//     No caller relies on zeros masking non-finite values.

// matMulRows computes rows [lo, hi) of dst = a × b. The k loop is unrolled
// four deep, so a dst row is loaded and stored once per four rows of b.
// A non-nil bias (one value per dst column) is added to each finished row —
// after the whole k sum, as a separate pass over the matrix would — and with
// relu the row then goes through ReLU, all while it is still in L1.
func matMulRows(dst, a, b *Matrix, bias []float64, relu bool, lo, hi int) {
	inner, n := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*inner : (i+1)*inner]
		drow := dst.Data[i*n : (i+1)*n]
		clear(drow)
		k := 0
		for ; k+4 <= inner; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			axpy4(drow, a0, a1, a2, a3, b.Data[k*n:(k+4)*n])
		}
		for ; k < inner; k++ {
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
	clear(dst.Data[lo*n : hi*n])
	k := 0
	for ; k+4 <= outer; k += 4 {
		r0 := a.Data[k*ac : (k+1)*ac]
		r1 := a.Data[(k+1)*ac : (k+2)*ac]
		r2 := a.Data[(k+2)*ac : (k+3)*ac]
		r3 := a.Data[(k+3)*ac : (k+4)*ac]
		brows := b.Data[k*n : (k+4)*n]
		for i := lo; i < hi; i++ {
			a0, a1, a2, a3 := r0[i], r1[i], r2[i], r3[i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			axpy4(dst.Data[i*n:(i+1)*n], a0, a1, a2, a3, brows)
		}
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

// axpy4 performs d[j] = (((d[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j]
// where b0..b3 are the four consecutive len(d)-wide rows packed in b4. AXPY
// finishes the k remainder one row at a time.
func axpy4(d []float64, a0, a1, a2, a3 float64, b4 []float64) {
	n := len(d)
	b0, b1, b2, b3 := b4[:n], b4[n:][:n], b4[2*n:][:n], b4[3*n:][:n]
	for j, dv := range d {
		dv += a0 * b0[j]
		dv += a1 * b1[j]
		dv += a2 * b2[j]
		dv += a3 * b3[j]
		d[j] = dv
	}
}

// matMulTransBRows computes rows [lo, hi) of dst = a × bᵀ: every element is
// a dot product of a row of a with a row of b. Four output columns are
// produced together from four independent accumulators, so each element of
// the a row is loaded once per four columns and the four add chains overlap.
func matMulTransBRows(dst, a, b *Matrix, lo, hi int) {
	inner, n := a.Cols, b.Rows
	for i := lo; i < hi; i++ {
		arow := a.Data[i*inner : (i+1)*inner]
		drow := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*inner : (j+1)*inner]
			b1 := b.Data[(j+1)*inner : (j+2)*inner]
			b2 := b.Data[(j+2)*inner : (j+3)*inner]
			b3 := b.Data[(j+3)*inner : (j+4)*inner]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.Data[j*inner : (j+1)*inner]
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			drow[j] = sum
		}
	}
}
