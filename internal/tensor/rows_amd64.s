#include "textflag.h"
#include "go_asm.h"

// The resident row kernels under both matrix products (kernels.go): one wide
// body and one narrow body, each a header expanded once per vector width.
// Every body uses registers 0-15 of its width only and ends in VZEROUPPER:
// the upper halves are clean on return, so the XSAVE a context switch or a
// signal does keeps skipping them, and the ZMM16-31 block is never dirtied
// at all (DESIGN.md §7).

#define FLAG_ACCUMULATE const_flagAccumulate
#define FLAG_RELU const_flagReLU

// What the headers take from here: A0-A7, the accumulators (the wide kernel
// has eight; the narrow one has four, one per row, and keeps the block's four
// rows of b in B0-B3, the same registers as A4-A7); M0-M3, the multipliers;
// T0-T3, the products; LANES columns to a vector and O1-O6, the byte offsets
// of a row's vectors 1-6 (wide kernel only); MOVV, BCAST, MULV and ADDV, the
// instructions that move, broadcast, multiply and add one unit (narrow kernel
// only: the wide one is always packed); ZERO and RELU.

// Eight lanes: AVX-512.
#define A0 Z0
#define A1 Z1
#define A2 Z2
#define A3 Z3
#define A4 Z4
#define A5 Z5
#define A6 Z6
#define A7 Z7
#define B0 Z4
#define B1 Z5
#define B2 Z6
#define B3 Z7
#define M0 Z8
#define M1 Z9
#define M2 Z10
#define M3 Z11
#define T0 Z12
#define T1 Z13
#define T2 Z14
#define T3 Z15
#define LANES 8
#define O1 64
#define O2 128
#define O3 192
#define O4 256
#define O5 320
#define O6 384
#define MOVV VMOVUPD
#define BCAST VBROADCASTSD
#define MULV VMULPD
#define ADDV VADDPD
#define ZERO(r) VPXORQ r, r, r
// The sign bit smeared over the lane clears what tensor.ReLU clears:
// negative values, -0 and NaNs with the sign set.
#define RELU(r) VPSRAQ $63, r, T0; VPANDNQ r, T0, r

// func rowsWide8(p *rowArgs)
TEXT ·rowsWide8(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DX
#include "rows_wide_amd64.h"

// func rowsNarrow8(p *rowArgs)
TEXT ·rowsNarrow8(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DX
#include "rows_narrow_amd64.h"

#undef A0
#undef A1
#undef A2
#undef A3
#undef A4
#undef A5
#undef A6
#undef A7
#undef B0
#undef B1
#undef B2
#undef B3
#undef M0
#undef M1
#undef M2
#undef M3
#undef T0
#undef T1
#undef T2
#undef T3
#undef LANES
#undef O1
#undef O2
#undef O3
#undef O4
#undef O5
#undef O6
#undef ZERO
#undef RELU

// Four lanes: AVX2.
#define A0 Y0
#define A1 Y1
#define A2 Y2
#define A3 Y3
#define A4 Y4
#define A5 Y5
#define A6 Y6
#define A7 Y7
#define B0 Y4
#define B1 Y5
#define B2 Y6
#define B3 Y7
#define M0 Y8
#define M1 Y9
#define M2 Y10
#define M3 Y11
#define T0 Y12
#define T1 Y13
#define T2 Y14
#define T3 Y15
#define LANES 4
#define O1 32
#define O2 64
#define O3 96
#define O4 128
#define O5 160
#define O6 192
#define ZERO(r) VPXOR r, r, r
// AVX2 has no 64-bit arithmetic shift: compare with the zero in M0 instead.
#define RELU(r) VPCMPGTQ r, M0, T0; VPANDN r, T0, r

// func rowsWide4(p *rowArgs)
TEXT ·rowsWide4(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DX
#include "rows_wide_amd64.h"

// func rowsNarrow4(p *rowArgs)
TEXT ·rowsNarrow4(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DX
#include "rows_narrow_amd64.h"

#undef A0
#undef A1
#undef A2
#undef A3
#undef A4
#undef A5
#undef A6
#undef A7
#undef B0
#undef B1
#undef B2
#undef B3
#undef M0
#undef M1
#undef M2
#undef M3
#undef T0
#undef T1
#undef T2
#undef T3
#undef LANES
#undef O1
#undef O2
#undef O3
#undef O4
#undef O5
#undef O6
#undef MOVV
#undef BCAST
#undef MULV
#undef ADDV

// One lane: scalar AVX, with the four-lane ZERO and RELU on the XMM registers
// (what they leave in the upper lane is never stored).
#define A0 X0
#define A1 X1
#define A2 X2
#define A3 X3
#define B0 X4
#define B1 X5
#define B2 X6
#define B3 X7
#define M0 X8
#define M1 X9
#define M2 X10
#define M3 X11
#define T0 X12
#define T1 X13
#define T2 X14
#define T3 X15
#define MOVV VMOVSD
#define BCAST VMOVSD
#define MULV VMULSD
#define ADDV VADDSD

// func rowsNarrow1(p *rowArgs)
TEXT ·rowsNarrow1(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DX
#include "rows_narrow_amd64.h"

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7, EBX bit 5), reports AVX and
// OSXSAVE (leaf 1, ECX bits 28 and 27), and XCR0 says the OS saves and
// restores both the XMM and the YMM halves of the registers (bits 1 and 2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET

// func cpuHasAVX512() bool
//
// On a CPU that passed cpuHasAVX2: AVX-512 Foundation is usable when CPUID
// reports it (leaf 7, EBX bit 16) and XCR0 says the OS saves and restores
// the opmask registers, the upper halves of ZMM0-15 and ZMM16-31 (bits 5, 6
// and 7) on top of XMM and YMM (bits 1 and 2).
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET
