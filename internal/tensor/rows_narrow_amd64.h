// The narrow resident row kernel, included once per unit by rows_amd64.s,
// which defines the unit: the registers (A0-A3 accumulators, one per dst row;
// B0-B3 the block's four rows of b; M0-M3 multipliers; T0-T3 products), the
// instructions that move, broadcast, multiply and add one unit (a ZMM, a YMM
// or a scalar) and ZERO/RELU for it. On entry DX holds the *rowArgs
// (kernels.go states what the fields mean); args.w is the unit's width and
// is not read.
//
// One unit of columns has one accumulator per row and so one chain of
// dependent adds: a row alone runs at the latency of an add. Four rows at a
// time take turns block by block instead, four independent chains in flight
// sharing one load of the block's rows of b, and what is left of the row
// count goes one by one. The arithmetic of a row is the wide kernel's:
// accumulator loaded or zeroed, blocks of four k with the whole-block ±0
// skip, the 1-3 left over with the per-multiplier skip, bias, ReLU
// sign-mask, one store; multiply then add, never fused.

// ALLZERO sets ZF when the four multipliers of row ar's block are all ±0.
#define ALLZERO(ar) \
	MOVQ (ar), AX; ORQ (ar)(R12*1), AX; ORQ (ar)(R12*2), AX; ORQ (ar)(R13*1), AX; SHLQ $1, AX

// LOADB loads the block's four rows of b, which every row of the group
// multiplies.
#define LOADB \
	MOVV (SI), B0; MOVV (SI)(R14*1), B1; MOVV (SI)(R14*2), B2; MOVV (SI)(R15*1), B3

#define MULADD4(ar, acc) \
	BCAST (ar), M0; BCAST (ar)(R12*1), M1; BCAST (ar)(R12*2), M2; BCAST (ar)(R13*1), M3; \
	MULV B0, M0, T0; ADDV T0, acc, acc; \
	MULV B1, M1, T1; ADDV T1, acc, acc; \
	MULV B2, M2, T2; ADDV T2, acc, acc; \
	MULV B3, M3, T3; ADDV T3, acc, acc

// ZERO1 sets ZF when row ar's next multiplier is ±0.
#define ZERO1(ar) \
	MOVQ (ar), AX; SHLQ $1, AX

#define MULADD1(ar, acc, t) \
	BCAST (ar), M0; MULV B0, M0, t; ADDV t, acc, acc

// DROWS leaves the byte offsets of dst rows 1 and 3 of the group in AX and
// CX; row 2 is at twice AX.
#define DROWS \
	MOVQ rowArgs_dStep(DX), AX; SHLQ $3, AX; LEAQ (AX)(AX*2), CX

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
	LEAQ (R14)(R14*2), R15
	CMPQ rowArgs_left(DX), $4
	JB   single

quad:
	MOVQ  rowArgs_aRow(DX), R8 // the four rows' multipliers
	MOVQ  rowArgs_aStep(DX), AX
	LEAQ  (R8)(AX*8), R9
	LEAQ  (R9)(AX*8), R10
	LEAQ  (R10)(AX*8), R11
	LEAQ  (R11)(AX*8), CX
	MOVQ  CX, rowArgs_aRow(DX) // the next group's first row
	MOVQ  rowArgs_b(DX), SI
	TESTQ $FLAG_ACCUMULATE, rowArgs_flags(DX)
	JZ    quadfresh
	DROWS
	MOVV  (DI), A0
	MOVV  (DI)(AX*1), A1
	MOVV  (DI)(AX*2), A2
	MOVV  (DI)(CX*1), A3
	JMP   quadblocks

quadfresh:
	ZERO(A0)
	ZERO(A1)
	ZERO(A2)
	ZERO(A3)

quadblocks:
	MOVQ rowArgs_k(DX), BX
	SHRQ $2, BX
	JZ   quadrest

quadblock:
	LOADB
	ALLZERO(R8)
	JZ   quadblock1
	MULADD4(R8, A0)

quadblock1:
	ALLZERO(R9)
	JZ   quadblock2
	MULADD4(R9, A1)

quadblock2:
	ALLZERO(R10)
	JZ   quadblock3
	MULADD4(R10, A2)

quadblock3:
	ALLZERO(R11)
	JZ   quadnext
	MULADD4(R11, A3)

quadnext:
	LEAQ (R8)(R12*4), R8
	LEAQ (R9)(R12*4), R9
	LEAQ (R10)(R12*4), R10
	LEAQ (R11)(R12*4), R11
	LEAQ (SI)(R14*4), SI
	DECQ BX
	JNZ  quadblock

quadrest:
	MOVQ rowArgs_k(DX), BX
	ANDQ $3, BX
	JZ   quadfinish

quadone:
	MOVV (SI), B0
	ZERO1(R8)
	JZ   quadone1
	MULADD1(R8, A0, T0)

quadone1:
	ZERO1(R9)
	JZ   quadone2
	MULADD1(R9, A1, T1)

quadone2:
	ZERO1(R10)
	JZ   quadone3
	MULADD1(R10, A2, T2)

quadone3:
	ZERO1(R11)
	JZ   quadonenext
	MULADD1(R11, A3, T3)

quadonenext:
	ADDQ R12, R8
	ADDQ R12, R9
	ADDQ R12, R10
	ADDQ R12, R11
	ADDQ R14, SI
	DECQ BX
	JNZ  quadone

quadfinish:
	MOVQ  rowArgs_bias(DX), CX
	TESTQ CX, CX
	JZ    quadstore
	MOVV  (CX), T0
	ADDV  T0, A0, A0
	ADDV  T0, A1, A1
	ADDV  T0, A2, A2
	ADDV  T0, A3, A3
	TESTQ $FLAG_RELU, rowArgs_flags(DX)
	JZ    quadstore
	ZERO(M0)
	RELU(A0)
	RELU(A1)
	RELU(A2)
	RELU(A3)

quadstore:
	DROWS
	MOVV A0, (DI)
	MOVV A1, (DI)(AX*1)
	MOVV A2, (DI)(AX*2)
	MOVV A3, (DI)(CX*1)
	LEAQ (DI)(AX*4), DI
	SUBQ $4, rowArgs_left(DX)
	CMPQ rowArgs_left(DX), $4
	JAE  quad

single:
	CMPQ rowArgs_left(DX), $0
	JE   done

row:
	MOVQ  rowArgs_aRow(DX), R8
	MOVQ  rowArgs_b(DX), SI
	TESTQ $FLAG_ACCUMULATE, rowArgs_flags(DX)
	JZ    fresh
	MOVV  (DI), A0
	JMP   blocks

fresh:
	ZERO(A0)

blocks:
	MOVQ rowArgs_k(DX), BX
	SHRQ $2, BX
	JZ   rest

block:
	ALLZERO(R8)
	JZ   nextblock
	LOADB
	MULADD4(R8, A0)

nextblock:
	LEAQ (R8)(R12*4), R8
	LEAQ (SI)(R14*4), SI
	DECQ BX
	JNZ  block

rest:
	MOVQ rowArgs_k(DX), BX
	ANDQ $3, BX
	JZ   finish

one:
	ZERO1(R8)
	JZ   nextone
	MOVV (SI), B0
	MULADD1(R8, A0, T0)

nextone:
	ADDQ R12, R8
	ADDQ R14, SI
	DECQ BX
	JNZ  one

finish:
	MOVQ  rowArgs_bias(DX), CX
	TESTQ CX, CX
	JZ    store
	MOVV  (CX), T0
	ADDV  T0, A0, A0
	TESTQ $FLAG_RELU, rowArgs_flags(DX)
	JZ    store
	ZERO(M0)
	RELU(A0)

store:
	MOVV A0, (DI)
	MOVQ rowArgs_dStep(DX), AX
	LEAQ (DI)(AX*8), DI
	MOVQ rowArgs_aStep(DX), AX
	MOVQ rowArgs_aRow(DX), CX
	LEAQ (CX)(AX*8), CX
	MOVQ CX, rowArgs_aRow(DX)
	DECQ rowArgs_left(DX)
	JNZ  row

done:
	VZEROUPPER
	RET

#undef ALLZERO
#undef LOADB
#undef MULADD4
#undef ZERO1
#undef MULADD1
#undef DROWS
