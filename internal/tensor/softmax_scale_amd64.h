// The last pass of the packed row softmax under SoftmaxRows (softmax.go),
// included once per vector width by rows_amd64.s. DX holds the
// *softmaxArgs. The block holds the exponentials the first pass and Exp
// left there, a group of LANES rows at a time, column after column; for each
// group the pass sums the columns in order from +0, as the scalar loop sums
// a row, takes the reciprocal of the sums, and scatters every column times
// it into the rows of x. The exponential is the first operand of that
// product, as it is in the scalar loop.

#define SUM M0 // the rows' sums, then their reciprocals
#define ONE M1

	MOVQ    softmaxArgs_x(DX), DI
	MOVQ    softmaxArgs_blk(DX), SI
	MOVQ    softmaxArgs_groups(DX), CX
	MOVQ    softmaxArgs_cols(DX), R8
	MOVQ    softmaxArgs_step(DX), R9
	SCATTERSETUP
	ZERO(ZR)
	VBROADCASTSD expOne<>(SB), ONE

group:
	VADDPD  (SI), ZR, SUM
	MOVQ    $1, BX // the column
	LEAQ    (LANES*8)(SI), R10

sum:
	CMPQ    BX, R8
	JAE     scale
	VADDPD  (R10), SUM, SUM
	INCQ    BX
	ADDQ    $(LANES*8), R10
	JMP     sum

scale:
	VDIVPD  SUM, ONE, SUM
	XORQ    BX, BX
	MOVQ    DI, R11

column:
	VMOVUPD (SI), T0
	VMULPD  SUM, T0, T0
	SCATTER(R11)
	ADDQ    $(LANES*8), SI
	ADDQ    $8, R11
	INCQ    BX
	CMPQ    BX, R8
	JB      column
	ADDQ    R9, DI
	DECQ    CX
	JNZ     group
	VZEROUPPER
	RET

#undef SUM
#undef ONE
