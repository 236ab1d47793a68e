package tensor

// Implemented in rows_amd64.s.

func cpuHasAVX2() bool

func cpuHasAVX512() bool

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

// cpuVectorLanes returns the widest resident body this CPU and OS can run.
func cpuVectorLanes() int {
	switch {
	case !cpuHasAVX2():
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
