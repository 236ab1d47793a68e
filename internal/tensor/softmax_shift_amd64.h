// The first pass of the packed row softmax under SoftmaxRows (softmax.go),
// included once per vector width by rows_amd64.s. DX holds the
// *softmaxArgs. The lanes of a vector are LANES consecutive rows of x, a
// group, and a group at a time, for each of its columns in turn, the pass
// gathers the column into the block — column after column, LANES elements
// each — while it folds the rows' largest elements lane by lane, as the
// scalar loop folds a row's: the running value is replaced where the new
// element is greater, ordered, so a NaN never replaces it and a leading NaN
// is never replaced. Then it subtracts that from every column it stored.
// What is left for Exp is the whole block, contiguous.

#define MX M0 // the rows' largest elements

	MOVQ    softmaxArgs_x(DX), SI
	MOVQ    softmaxArgs_blk(DX), DI
	MOVQ    softmaxArgs_groups(DX), CX
	MOVQ    softmaxArgs_cols(DX), R8
	MOVQ    softmaxArgs_step(DX), R9
	VMOVUPD softmaxArgs_lanes(DX), B

group:
	GATHER(SI, MX)
	VMOVUPD MX, (DI)
	MOVQ    $1, BX // the column
	LEAQ    8(SI), R11
	LEAQ    (LANES*8)(DI), R10

column:
	CMPQ    BX, R8
	JAE     shift
	GATHER(R11, T0)
	VMOVUPD T0, (R10)
	MAXSTEP(T0, MX, T1)
	INCQ    BX
	ADDQ    $8, R11
	ADDQ    $(LANES*8), R10
	JMP     column

shift:
	XORQ    BX, BX

subtract:
	VMOVUPD (DI), T0
	VSUBPD  MX, T0, T0
	VMOVUPD T0, (DI)
	ADDQ    $(LANES*8), DI
	INCQ    BX
	CMPQ    BX, R8
	JB      subtract
	ADDQ    R9, SI
	DECQ    CX
	JNZ     group
	VZEROUPPER
	RET

#undef MX
