package tensor

import "fmt"

// softmaxBlock is how many elements SoftmaxRows takes through one Exp call:
// a stack array of them holds the shifted logits of as many groups of rows
// as fit.
const softmaxBlock = 512

// softmaxArgs is what a pass of the packed row softmax
// (softmax_shift_amd64.h, softmax_scale_amd64.h) is called with: groups
// groups of LANES rows of x, cols columns each, the first rows step bytes
// apart and a group's rows at the byte offsets in lanes (pitch bytes apart),
// and the block, the group's columns one after another, LANES elements each.
// The assembly reads the fields at the offsets go_asm.h gives it.
type softmaxArgs struct {
	x, blk             *float64
	groups, cols, step int
	pitch              int
	lanes              [8]int
}

// SoftmaxRows writes the softmax of every row of src into the same row of
// dst, the bits Softmax writes for the row, and returns dst. The shapes must
// match; dst may be src, and must not overlap it otherwise. Either may be a
// column view: dst is one where the probabilities are written straight into
// a critic's joint input.
//
// Softmax's steps are taken over a block of rows at a time: each row's
// largest logit, every logit minus it, the block's exponentials in one Exp,
// each row's sum from its first element on, and each exponential times the
// sum's reciprocal. On the resident bodies the other four steps are packed
// too, one row to a lane: a pass gathers a group of rows column by column
// into a block on the stack, folding their largest elements lane by lane and
// subtracting them, and after Exp a second pass sums the block's columns in
// order, scales them and scatters them back into dst (softmax_*_amd64.h). A
// row short of a whole group, every row of the Go body and every row wider
// than a block goes through Softmax.
func SoftmaxRows(dst, src *Matrix) *Matrix {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: SoftmaxRows shape mismatch %dx%d vs %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	if dst != src && Overlap(dst, src) {
		panic("tensor: SoftmaxRows dst overlaps src")
	}
	rows, cols, r := src.Rows, src.Cols, 0
	if lanes := vectorLanes; lanes != 0 && cols > 0 && cols*lanes <= softmaxBlock {
		var block [softmaxBlock]float64
		sp, dp := src.Pitch(), dst.Pitch()
		for groups := (rows - r) / lanes; groups > 0; groups = (rows - r) / lanes {
			g := min(groups, softmaxBlock/(cols*lanes))
			blk := block[:g*lanes*cols]
			softmaxPass(lanes, false, src.Data[r*sp:], sp, blk, g, cols)
			Exp(blk, blk)
			softmaxPass(lanes, true, dst.Data[r*dp:], dp, blk, g, cols)
			r += g * lanes
		}
	}
	for ; r < rows; r++ {
		Softmax(dst.Row(r), src.Row(r))
	}
	return dst
}
