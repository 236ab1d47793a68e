// The wide resident row kernel, included once per vector width by
// rows_amd64.s, which defines the registers (A0-A7 accumulators, M0 the
// multiplier, T0-T3 products, ZR zero), the vector size (LANES columns, O1-O6
// byte offsets of vectors 1-6) and ZERO/RELU/GATE/NONZERO/GATHER for that
// width. On entry DX holds the *rowArgs (kernels.go states what the fields
// mean).
//
// One dst row at a time, args.w columns of it, 7·LANES < w <= 8·LANES, in
// eight accumulators that stay in registers from the first k to the store:
// loaded from d (accumulate) or zeroed, then the k sum, then the bias, the
// ReLU sign-mask and the gate, then one store. Vector 7 sits at column
// w-LANES, so when w is not a multiple of LANES it overlaps vector 6: those
// columns are computed twice, from the same operands in the same order, and
// stored twice with the same bits; nothing at or beyond column w is read or
// written. Every load of d precedes every store, so the overlap is harmless
// when accumulating too.
//
// The k sum takes the multipliers 64 at a time, one word of bits each: a bit
// is set where the multiplier is not ±0 (NEXTWORD, below the kernel). A word
// with every bit set is a run of plain steps. Any other is walked from its
// lowest set bit up, TZCNT to find one and BLSR to clear it: ascending k, one
// multiply-add step per multiplier that is not zero and nothing at all, not
// even a branch, per multiplier that is. The words and the walk are scalar
// work; the floating-point ports see only the steps. Each word is built one
// word ahead — the next row's first while a row's last is summed — so that
// what waits for the compares is never a step.
//
// Per lane a step is VMULPD then VADDPD — a fused multiply-add would round
// once per pair and change the bits.

// PLAIN is the step of the multiplier at a and the row of b at r, and moves
// both on to the next k.
#define PLAIN(a, r) \
	VBROADCASTSD (a), M0; STEP(M0, r); ADDQ R12, a; ADDQ R14, r

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
	MOVQ rowArgs_rows(DX), AX
	MOVQ AX, rowArgs_left(DX)
	MOVQ rowArgs_aStride(DX), R12
	SHLQ $3, R12               // strides in bytes from here on
	MOVQ rowArgs_ldb(DX), R14
	SHLQ $3, R14
	MOVQ rowArgs_w(DX), R15
	SUBQ $LANES, R15
	SHLQ $3, R15               // where vector 7 starts
	ZERO(ZR)
	VMOVUPD rowArgs_aLanes(DX), B // the strided multipliers' offsets, for NEXTWORD's gathers
	MOVQ rowArgs_a(DX), SI
	MOVQ SI, rowArgs_aRow(DX)
	MOVQ R12, AX
	SHLQ $6, AX
	SUBQ AX, SI
	MOVQ rowArgs_k(DX), R10
	ADDQ $64, R10
	CALL NEXTWORD              // as if from the word before: the first row's first

row:
	MOVQ  rowArgs_aRow(DX), SI // the word's first multiplier
	MOVQ  rowArgs_b(DX), R8    // and its row of b
	MOVQ  rowArgs_k(DX), R10   // multipliers to go, this word's included
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
	JMP   word

fresh:
	ZERO(A0)
	ZERO(A1)
	ZERO(A2)
	ZERO(A3)
	ZERO(A4)
	ZERO(A5)
	ZERO(A6)
	ZERO(A7)

word:
	MOVQ    R11, BX            // this word's bits
	MOVQ    $64, CX
	CMPQ    R10, CX
	CMOVQLT R10, CX            // and how many multipliers it has
	MOVQ    $-1, AX
	NEGQ    CX
	SHRQ    CX, AX             // as many set bits
	CMPQ    BX, AX
	JNE     walk

	// No zero among them: plain steps, four to a turn of the loop and then
	// what is left, with the next word's bits built after the first eight,
	// when the steps in flight cover the time that takes.
	NEGQ CX
	MOVQ CX, BX
	ANDQ $3, BX                // steps after the fours
	SHRQ $2, CX                // fours
	MOVQ SI, R9
	MOVQ R8, AX
	MOVQ $2, R13               // fours until the next word's turn
	JMP  fours

four:
	PLAIN(R9, AX)
	PLAIN(R9, AX)
	PLAIN(R9, AX)
	PLAIN(R9, AX)
	DECQ CX
	DECQ R13
	JNZ  fours
	CALL NEXTWORD

fours:
	TESTQ CX, CX
	JNZ   four
	TESTQ BX, BX
	JZ    ran

one:
	PLAIN(R9, AX)
	DECQ BX
	JNZ  one

ran:
	TESTQ R13, R13
	JLE   nextword
	CALL  NEXTWORD             // a word of fewer than eight
	JMP   nextword

walk:
	CALL  NEXTWORD
	TESTQ BX, BX
	JZ    nextword

step:
	TZCNTQ BX, AX              // the next k whose multiplier is not zero
	BLSRQ  BX, BX
	MOVQ   AX, CX
	IMULQ  R12, CX
	IMULQ  R14, AX
	ADDQ   R8, AX
	VBROADCASTSD (SI)(CX*1), M0
	STEP(M0, AX)
	TESTQ  BX, BX
	JNZ    step

nextword:
	SUBQ $64, R10
	JLE  finish
	MOVQ R12, AX
	SHLQ $6, AX
	ADDQ AX, SI
	MOVQ R14, AX
	SHLQ $6, AX
	ADDQ AX, R8
	JMP  word

finish:
	MOVQ  rowArgs_bias(DX), CX
	TESTQ CX, CX
	JZ    gate
	VADDPD (CX), A0, A0
	VADDPD O1(CX), A1, A1
	VADDPD O2(CX), A2, A2
	VADDPD O3(CX), A3, A3
	VADDPD O4(CX), A4, A4
	VADDPD O5(CX), A5, A5
	VADDPD O6(CX), A6, A6
	VADDPD (CX)(R15*1), A7, A7
	TESTQ $FLAG_RELU, rowArgs_flags(DX)
	JZ    gate
	RELU(A0)
	RELU(A1)
	RELU(A2)
	RELU(A3)
	RELU(A4)
	RELU(A5)
	RELU(A6)
	RELU(A7)

gate:
	MOVQ  rowArgs_gate(DX), CX
	TESTQ CX, CX
	JZ    store
	SUBQ  rowArgs_d(DX), CX
	ADDQ  DI, CX               // this row's gate
	VMOVUPD (CX), T0
	GATE(T0, A0)
	VMOVUPD O1(CX), T0
	GATE(T0, A1)
	VMOVUPD O2(CX), T0
	GATE(T0, A2)
	VMOVUPD O3(CX), T0
	GATE(T0, A3)
	VMOVUPD O4(CX), T0
	GATE(T0, A4)
	VMOVUPD O5(CX), T0
	GATE(T0, A5)
	VMOVUPD O6(CX), T0
	GATE(T0, A6)
	VMOVUPD (CX)(R15*1), T0
	GATE(T0, A7)

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
#undef PLAIN

// NEXTWORD leaves in R11 the bits of the word after the one the kernel is at
// (SI its first multiplier, R10 what the row has left from there on): the
// next 64 multipliers of the row or what is left of them, or the first word
// of the next row, or nothing after the last row's last. Bit i is set where
// multiplier i is not ±0. The bits go in from the top: what does not fill a
// vector first — as the upper lanes of one more compare where the multipliers
// are contiguous and there is a vector of them, one scalar test each
// otherwise — then one compare per vector: loaded where the multipliers are
// contiguous, gathered through the offsets in B where they are strided
// (aᵀ × b). Contiguous multipliers are one stream through a, row after row,
// which this routine reaches a word before the steps do and so before the
// hardware prefetchers have it: each compare prefetches the line 64
// multipliers on. It writes T0-T2 and K1-K2 besides R11.
TEXT NEXTWORD, NOSPLIT|NOFRAME, $0-0
	PUSHQ AX
	PUSHQ CX
	PUSHQ R9
	PUSHQ R13
	MOVQ  R12, AX
	SHLQ  $6, AX
	ADDQ  SI, AX               // 64 multipliers on
	LEAQ  -64(R10), CX
	TESTQ CX, CX
	JG    count
	CMPQ  rowArgs_left(DX), $1
	JE    done
	MOVQ  rowArgs_aStep(DX), AX
	SHLQ  $3, AX
	ADDQ  rowArgs_aRow(DX), AX // the next row
	MOVQ  rowArgs_k(DX), CX

count:
	MOVQ    $64, R9
	CMPQ    CX, R9
	CMOVQGT R9, CX
	MOVQ    CX, R9
	IMULQ   R12, R9
	ADDQ    AX, R9             // one beyond the word's last multiplier
	MOVQ    CX, AX
	SHRQ    $LANESHIFT, AX     // whole vectors, after
	XORL    R11, R11
	ANDQ    $(LANES-1), CX     // what does not fill one
	JZ      vectors
	CMPQ    R12, $8
	JNE     singles
	TESTQ   AX, AX
	JZ      singles

	// Contiguous, and a vector or more of them: the last vector's worth in
	// one compare, without the lanes that the vector below will cover.
	NONZERO(-8*LANES(R9), R11)
	MOVQ CX, R13
	SHLQ $3, R13
	SUBQ R13, R9
	NEGQ CX
	ADDQ $LANES, CX
	SHRQ CX, R11
	JMP  vectors

singles:
	SUBQ R12, R9
	MOVQ (R9), R13
	ADDQ R13, R13              // drop the sign: -0 is a zero too
	NEGQ R13                   // carry: any bit left
	ADCQ R11, R11
	DECQ CX
	JNZ  singles

vectors:
	TESTQ AX, AX
	JZ    done
	MOVQ  R12, CX
	SHLQ  $LANESHIFT, CX       // from one vector's multipliers to the next's
	CMPQ  R12, $8
	JNE   gathers

vector:
	SUBQ CX, R9
	PREFETCHT0 512(R9)         // the word after: this one came the same way
	NONZERO((R9), R13)
	SHLQ $LANES, R11
	ORQ  R13, R11
	DECQ AX
	JNZ  vector
	JMP  done

gathers:
	SUBQ CX, R9
	GATHER(R9, T1)
	NONZERO(T1, R13)
	SHLQ $LANES, R11
	ORQ  R13, R11
	DECQ AX
	JNZ  gathers

done:
	POPQ R13
	POPQ R9
	POPQ CX
	POPQ AX
	RET
