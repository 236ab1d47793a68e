// The wide resident row kernel, included once per vector width by
// rows_amd64.s, which defines the registers (A0-A7 accumulators, M0-M3
// multipliers, T0-T3 products), the vector size (LANES columns, O1-O6 byte
// offsets of vectors 1-6) and ZERO/RELU for that width. On entry DX holds
// the *rowArgs (kernels.go states what the fields mean).
//
// One dst row at a time, args.w columns of it, 7·LANES < w <= 8·LANES, in
// eight accumulators that stay in registers from the first k to the store:
// loaded from d (accumulate) or zeroed, then every block of four k — skipped
// when its four multipliers are all ±0 — then the 1-3 left over, each skipped
// on its own ±0 multiplier, then the bias and the ReLU sign-mask, then one
// store. Vector 7 sits at column w-LANES, so when w is not a multiple of
// LANES it overlaps vector 6: those columns are computed twice, from the
// same operands in the same order, and stored twice with the same bits;
// nothing at or beyond column w is read or written. Every load of d
// precedes every store, so the overlap is harmless when accumulating too.
//
// Per lane it is VMULPD then VADDPD, ascending k — a fused multiply-add would
// round once per pair and change the bits.

#define STEP(m, r) \
	VMULPD (r), m, T0; VADDPD T0, A0, A0; \
	VMULPD O1(r), m, T1; VADDPD T1, A1, A1; \
	VMULPD O2(r), m, T2; VADDPD T2, A2, A2; \
	VMULPD O3(r), m, T3; VADDPD T3, A3, A3; \
	VMULPD O4(r), m, T0; VADDPD T0, A4, A4; \
	VMULPD O5(r), m, T1; VADDPD T1, A5, A5; \
	VMULPD O6(r), m, T2; VADDPD T2, A6, A6; \
	VMULPD (r)(R15*1), m, T3; VADDPD T3, A7, A7

	MOVQ rowArgs_d(DX), DI
	MOVQ rowArgs_a(DX), AX
	MOVQ AX, rowArgs_aRow(DX)
	MOVQ rowArgs_rows(DX), AX
	MOVQ AX, rowArgs_left(DX)
	MOVQ rowArgs_aStride(DX), R12
	SHLQ $3, R12               // strides in bytes from here on
	LEAQ (R12)(R12*2), R13
	MOVQ rowArgs_ldb(DX), R14
	SHLQ $3, R14
	MOVQ rowArgs_w(DX), R15
	SUBQ $LANES, R15
	SHLQ $3, R15               // where vector 7 starts

row:
	MOVQ  rowArgs_aRow(DX), SI
	MOVQ  rowArgs_b(DX), R8    // b rows k .. k+3
	LEAQ  (R8)(R14*1), R9
	LEAQ  (R8)(R14*2), R10
	LEAQ  (R9)(R14*2), R11
	TESTQ $FLAG_ACCUMULATE, rowArgs_flags(DX)
	JZ    fresh
	VMOVUPD (DI), A0
	VMOVUPD O1(DI), A1
	VMOVUPD O2(DI), A2
	VMOVUPD O3(DI), A3
	VMOVUPD O4(DI), A4
	VMOVUPD O5(DI), A5
	VMOVUPD O6(DI), A6
	VMOVUPD (DI)(R15*1), A7
	JMP   blocks

fresh:
	ZERO(A0)
	ZERO(A1)
	ZERO(A2)
	ZERO(A3)
	ZERO(A4)
	ZERO(A5)
	ZERO(A6)
	ZERO(A7)

blocks:
	MOVQ rowArgs_k(DX), BX
	SHRQ $2, BX
	JZ   rest

block:
	MOVQ (SI), AX
	ORQ  (SI)(R12*1), AX
	ORQ  (SI)(R12*2), AX
	ORQ  (SI)(R13*1), AX
	SHLQ $1, AX                // drop the sign: -0 is a zero too
	JZ   nextblock
	VBROADCASTSD (SI), M0
	VBROADCASTSD (SI)(R12*1), M1
	VBROADCASTSD (SI)(R12*2), M2
	VBROADCASTSD (SI)(R13*1), M3
	STEP(M0, R8)
	STEP(M1, R9)
	STEP(M2, R10)
	STEP(M3, R11)

nextblock:
	LEAQ (SI)(R12*4), SI
	LEAQ (R8)(R14*4), R8
	LEAQ (R9)(R14*4), R9
	LEAQ (R10)(R14*4), R10
	LEAQ (R11)(R14*4), R11
	DECQ BX
	JNZ  block

rest:
	MOVQ rowArgs_k(DX), CX
	ANDQ $3, CX
	JZ   finish

one:
	MOVQ (SI), AX
	SHLQ $1, AX
	JZ   nextone
	VBROADCASTSD (SI), M0
	STEP(M0, R8)

nextone:
	ADDQ R12, SI
	ADDQ R14, R8
	DECQ CX
	JNZ  one

finish:
	MOVQ  rowArgs_bias(DX), CX
	TESTQ CX, CX
	JZ    store
	VADDPD (CX), A0, A0
	VADDPD O1(CX), A1, A1
	VADDPD O2(CX), A2, A2
	VADDPD O3(CX), A3, A3
	VADDPD O4(CX), A4, A4
	VADDPD O5(CX), A5, A5
	VADDPD O6(CX), A6, A6
	VADDPD (CX)(R15*1), A7, A7
	TESTQ $FLAG_RELU, rowArgs_flags(DX)
	JZ    store
	ZERO(M0)
	RELU(A0)
	RELU(A1)
	RELU(A2)
	RELU(A3)
	RELU(A4)
	RELU(A5)
	RELU(A6)
	RELU(A7)

store:
	VMOVUPD A0, (DI)
	VMOVUPD A1, O1(DI)
	VMOVUPD A2, O2(DI)
	VMOVUPD A3, O3(DI)
	VMOVUPD A4, O4(DI)
	VMOVUPD A5, O5(DI)
	VMOVUPD A6, O6(DI)
	VMOVUPD A7, (DI)(R15*1)
	MOVQ rowArgs_dStep(DX), AX
	LEAQ (DI)(AX*8), DI
	MOVQ rowArgs_aStep(DX), AX
	MOVQ rowArgs_aRow(DX), CX
	LEAQ (CX)(AX*8), CX
	MOVQ CX, rowArgs_aRow(DX)
	DECQ rowArgs_left(DX)
	JNZ  row
	VZEROUPPER
	RET

#undef STEP
