// The narrow resident row kernel, included once per vector width by
// rows_amd64.s, which defines the registers (A0-A7 accumulators, one per dst
// row; B the row of b; M0-M1 and T0-T2 scratch; ZR zero) and COLUMNS, LOADW,
// STOREW, MADD, ZERO, RELU, GATE and ANYNAN for that width. On entry DX holds the
// *rowArgs (kernels.go states what the fields mean).
//
// One panel of args.w columns, 1 <= w <= LANES, as one vector whose other
// lanes are masked off every load and store: nothing at or beyond column w is
// read or written. A panel has one accumulator per row and so one chain of
// dependent steps: a row alone runs at the latency of a fused multiply-add.
// Eight rows at a time take turns k by k instead, eight independent chains in
// flight sharing one load of b's row, and what is left of the row count goes
// one by one.
// The arithmetic of a row is the wide kernel's — accumulator loaded or
// zeroed, the k sum without the multipliers that are ±0, bias, ReLU
// sign-mask, gate, one store; each step one fused multiply-add — but a zero
// multiplier is not walked around here. Its product is ±0, and adding that
// changes nothing, unless what it multiplies is not finite: so the kernel
// first looks through the panel of b, and only if an infinity or a NaN is in
// it do the groups of eight take the steps that the multiplier's own compare
// with zero masks off (MADD), which leaves the sum as untouched as no step at
// all. Single rows always take those: they wait for the step before and have
// the compare for free.

// PLAINMADD is MADD without the compare: for a b that is all finite.
#define PLAINMADD(p, a, m, t, k) \
	VBROADCASTSD (p), m; VFMADD231PD B, m, a

// EIGHT is op on each row's accumulator in turn. LOADROW, GATEROW and STOREROW
// are such ops on the row of d at AX, or its gate at SI, moving on to the
// next row, BX bytes further; BIASROW adds the bias in T1.
#define EIGHT(op) op(A0); op(A1); op(A2); op(A3); op(A4); op(A5); op(A6); op(A7)
#define LOADROW(acc) LOADW((AX), acc); ADDQ BX, AX
#define BIASROW(acc) VADDPD T1, acc, acc
#define GATEROW(acc) LOADW((SI), T0); GATE(T0, acc); ADDQ BX, SI
#define STOREROW(acc) STOREW(acc, (AX)); ADDQ BX, AX

// SUM8 is the k sum of eight rows, BX multipliers each.
#define SUM8(loop, madd) \
loop: \
	LOADW((SI), B); \
	madd(R8, A0, M0, T0, K1); \
	madd(R9, A1, M1, T1, K2); \
	madd(R10, A2, M0, T0, K1); \
	madd(R11, A3, M1, T1, K2); \
	madd(R12, A4, M0, T0, K1); \
	madd(R13, A5, M1, T1, K2); \
	madd(R14, A6, M0, T0, K1); \
	madd(R15, A7, M1, T1, K2); \
	ADDQ CX, R8; \
	ADDQ CX, R9; \
	ADDQ CX, R10; \
	ADDQ CX, R11; \
	ADDQ CX, R12; \
	ADDQ CX, R13; \
	ADDQ CX, R14; \
	ADDQ CX, R15; \
	ADDQ DI, SI; \
	DECQ BX; \
	JNZ  loop

	MOVQ rowArgs_d(DX), AX
	MOVQ AX, rowArgs_dRow(DX)
	MOVQ rowArgs_a(DX), AX
	MOVQ AX, rowArgs_aRow(DX)
	MOVQ rowArgs_rows(DX), AX
	MOVQ AX, rowArgs_left(DX)
	COLUMNS(rowArgs_w(DX), AX)
	MOVQ rowArgs_aStride(DX), CX
	SHLQ $3, CX                // strides in bytes from here on
	MOVQ rowArgs_ldb(DX), DI
	SHLQ $3, DI
	ZERO(ZR)
	CMPQ rowArgs_left(DX), $8
	JB   single
	MOVQ rowArgs_b(DX), SI
	MOVQ rowArgs_k(DX), BX
	ZERO(T2)

finite:
	LOADW((SI), B)
	VMULPD B, ZR, T0           // NaN where b is not finite
	VADDPD T0, T2, T2
	ADDQ DI, SI
	DECQ BX
	JNZ  finite
	ANYNAN(T2, AX)
	MOVQ AX, rowArgs_masked(DX)

eight:
	CMPQ rowArgs_left(DX), $8
	JB   single
	MOVQ rowArgs_aRow(DX), R8  // the eight rows' multipliers
	MOVQ rowArgs_aStep(DX), AX
	LEAQ (R8)(AX*8), R9
	LEAQ (R9)(AX*8), R10
	LEAQ (R10)(AX*8), R11
	LEAQ (R11)(AX*8), R12
	LEAQ (R12)(AX*8), R13
	LEAQ (R13)(AX*8), R14
	LEAQ (R14)(AX*8), R15
	LEAQ (R15)(AX*8), AX
	MOVQ AX, rowArgs_aRow(DX)  // the next group's first row
	MOVQ rowArgs_b(DX), SI
	TESTQ $FLAG_ACCUMULATE, rowArgs_flags(DX)
	JZ    eightfresh
	MOVQ  rowArgs_dRow(DX), AX
	MOVQ  rowArgs_dStep(DX), BX
	SHLQ  $3, BX
	EIGHT(LOADROW)
	JMP   eightsum

eightfresh:
	EIGHT(ZERO)

eightsum:
	MOVQ rowArgs_k(DX), BX
	CMPQ rowArgs_masked(DX), $0
	JNE  eightmasked
	SUM8(eightplain, PLAINMADD)
	JMP  eightbias

eightmasked:
	SUM8(eightk, MADD)

eightbias:
	MOVQ  rowArgs_bias(DX), AX
	TESTQ AX, AX
	JZ    eightstore
	LOADW((AX), T1)
	EIGHT(BIASROW)
	TESTQ $FLAG_RELU, rowArgs_flags(DX)
	JZ    eightstore
	EIGHT(RELU)

eightstore:
	MOVQ  rowArgs_dRow(DX), AX
	MOVQ  rowArgs_dStep(DX), BX
	SHLQ  $3, BX
	MOVQ  rowArgs_gate(DX), SI
	TESTQ SI, SI
	JZ    eightout
	SUBQ  rowArgs_d(DX), SI    // from a dst element to its gate
	ADDQ  AX, SI
	EIGHT(GATEROW)

eightout:
	EIGHT(STOREROW)
	MOVQ AX, rowArgs_dRow(DX)
	SUBQ $8, rowArgs_left(DX)
	JMP  eight

single:
	CMPQ rowArgs_left(DX), $0
	JE   done

row:
	MOVQ  rowArgs_aRow(DX), R8
	MOVQ  rowArgs_b(DX), SI
	MOVQ  rowArgs_dRow(DX), AX
	TESTQ $FLAG_ACCUMULATE, rowArgs_flags(DX)
	JZ    fresh
	LOADW((AX), A0)
	JMP   sum

fresh:
	ZERO(A0)

sum:
	MOVQ rowArgs_k(DX), BX

onek:
	LOADW((SI), B)
	MADD(R8, A0, M0, T0, K1)
	ADDQ CX, R8
	ADDQ DI, SI
	DECQ BX
	JNZ  onek

	MOVQ  rowArgs_bias(DX), BX
	TESTQ BX, BX
	JZ    gate
	LOADW((BX), T1)
	VADDPD T1, A0, A0
	TESTQ $FLAG_RELU, rowArgs_flags(DX)
	JZ    gate
	RELU(A0)

gate:
	MOVQ  rowArgs_gate(DX), SI
	TESTQ SI, SI
	JZ    store
	SUBQ  rowArgs_d(DX), SI
	LOADW((AX)(SI*1), T1)
	GATE(T1, A0)

store:
	STOREW(A0, (AX))
	MOVQ rowArgs_dStep(DX), BX
	LEAQ (AX)(BX*8), AX
	MOVQ AX, rowArgs_dRow(DX)
	MOVQ rowArgs_aStep(DX), BX
	MOVQ rowArgs_aRow(DX), AX
	LEAQ (AX)(BX*8), AX
	MOVQ AX, rowArgs_aRow(DX)
	DECQ rowArgs_left(DX)
	JNZ  row

done:
	VZEROUPPER
	RET

#undef PLAINMADD
#undef EIGHT
#undef LOADROW
#undef BIASROW
#undef GATEROW
#undef STOREROW
#undef SUM8
