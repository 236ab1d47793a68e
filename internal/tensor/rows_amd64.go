package tensor

// Implemented in rows_amd64.s.

func cpuHasAVX2() bool

func cpuHasAVX512() bool

func cpuHasFMA() bool

//go:noescape
func rowsWide8(p *rowArgs)

//go:noescape
func rowsNarrow8(p *rowArgs)

//go:noescape
func rowsWide4(p *rowArgs)

//go:noescape
func rowsNarrow4(p *rowArgs)

//go:noescape
func logVectors8(dst, src *float64, n int) int

//go:noescape
func logVectors4(dst, src *float64, n int) int

// logVectors runs the packed logarithm of the given width over the whole
// vectors at the front of src, which holds at least one and dst as many
// elements, until one holds a lane it does not compute, and returns the count
// of elements written.
func logVectors(lanes int, dst, src []float64) int {
	_ = dst[len(src)-1]
	if lanes == 8 {
		return logVectors8(&dst[0], &src[0], len(src))
	}
	return logVectors4(&dst[0], &src[0], len(src))
}

//go:noescape
func expVectors8(dst, src *float64, n int) int

//go:noescape
func expVectors4(dst, src *float64, n int) int

// expVectors is logVectors for the packed exponential.
func expVectors(lanes int, dst, src []float64) int {
	_ = dst[len(src)-1]
	if lanes == 8 {
		return expVectors8(&dst[0], &src[0], len(src))
	}
	return expVectors4(&dst[0], &src[0], len(src))
}

//go:noescape
func softmaxShift8(p *softmaxArgs)

//go:noescape
func softmaxScale8(p *softmaxArgs)

//go:noescape
func softmaxShift4(p *softmaxArgs)

//go:noescape
func softmaxScale4(p *softmaxArgs)

// softmaxPass runs the given pass of the packed row softmax (scale false:
// the gather, fold and subtract; true: the sums, reciprocals and scatter) at
// the given width over groups groups of lanes rows of x, pitch elements
// apart, and the block of groups·lanes·cols elements.
func softmaxPass(lanes int, scale bool, x []float64, pitch int, blk []float64, groups, cols int) {
	_, _ = x[(groups*lanes-1)*pitch+cols-1], blk[groups*lanes*cols-1]
	p := softmaxArgs{x: &x[0], blk: &blk[0], groups: groups, cols: cols, step: 8 * lanes * pitch, pitch: 8 * pitch}
	for l := range p.lanes {
		p.lanes[l] = 8 * l * pitch
	}
	switch {
	case lanes == 8 && !scale:
		softmaxShift8(&p)
	case lanes == 8:
		softmaxScale8(&p)
	case !scale:
		softmaxShift4(&p)
	default:
		softmaxScale4(&p)
	}
}

//go:noescape
func adamVectors8(p *adamArgs)

//go:noescape
func adamVectors4(p *adamArgs)

// adamVectors runs the resident Adam step of the given width over the p.n
// elements p describes, a whole number of vectors, at least one.
func adamVectors(lanes int, p *adamArgs) {
	if lanes == 8 {
		adamVectors8(p)
		return
	}
	adamVectors4(p)
}

//go:noescape
func polyakVectors8(dst, src *float64, n int, tau, keep float64)

//go:noescape
func polyakVectors4(dst, src *float64, n int, tau, keep float64)

// polyakVectors runs the resident soft update of the given width over dst
// and src, of one length, a whole number of vectors, at least one.
func polyakVectors(lanes int, dst, src []float64, tau float64) {
	_ = src[len(dst)-1]
	if lanes == 8 {
		polyakVectors8(&dst[0], &src[0], len(dst), tau, 1-tau)
		return
	}
	polyakVectors4(&dst[0], &src[0], len(dst), tau, 1-tau)
}

// cpuVectorLanes returns the widest resident body this CPU and OS can run.
// Both need FMA: every product step is a fused multiply-add.
func cpuVectorLanes() int {
	switch {
	case !cpuHasAVX2() || !cpuHasFMA():
		return 0
	case cpuHasAVX512():
		return 8
	}
	return 4
}

// rowsPanel runs p on the next panel of a row that has left columns to go
// and returns the panel's width: the wide kernel of the given width on more
// than seven vectors (up to eight), else the narrow kernel on one vector or
// what is left of one. Four columns or fewer are a panel of the four-lane
// narrow kernel at either width: its half-width operations have a port more
// to run on than the eight-lane ones, and nothing to do in the other lanes.
func rowsPanel(p *rowArgs, lanes, left int) int {
	switch {
	case left > 7*lanes && lanes == 8:
		p.w = min(left, 64)
		rowsWide8(p)
	case left > 7*lanes:
		p.w = min(left, 32)
		rowsWide4(p)
	case left > 4 && lanes == 8:
		p.w = min(left, 8)
		rowsNarrow8(p)
	default:
		p.w = min(left, 4)
		rowsNarrow4(p)
	}
	return p.w
}
