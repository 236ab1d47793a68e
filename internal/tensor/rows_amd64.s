#include "textflag.h"
#include "go_asm.h"

// The resident row kernels under both matrix products (kernels.go): one wide
// body and one narrow body, each a header expanded once per vector width —
// and, expanded beside them, the packed logarithm under Log (log.go), the
// packed exponential under Exp (exp.go), the two passes of the packed row
// softmax under SoftmaxRows (softmax.go) and the optimizer steps under
// AdamStep and Polyak (optim.go).
// Every body uses registers 0-15 of its width only and ends in VZEROUPPER:
// the upper halves are clean on return, so the XSAVE a context switch or a
// signal does keeps skipping them, and the ZMM16-31 block is never dirtied
// at all (DESIGN.md §7).

#define FLAG_ACCUMULATE const_flagAccumulate
#define FLAG_RELU const_flagReLU

// What the headers take from here. Registers: A0-A7, the accumulators (the
// wide kernel's eight vectors of one row, the narrow kernel's eight rows of
// one vector); B, the narrow kernel's row of b; M0-M1, multipliers; T0-T3,
// scratch; ZR, which holds zero throughout. LANES columns to a
// vector, and O1-O6, the byte offsets of a row's vectors 1-6. And what differs
// between the widths beyond the registers' names:
//
//	ZERO(r)           r = +0
//	RELU(r)           r = tensor.ReLU(r), lane by lane
//	GATE(t, r)        r = +0 in the lanes where t has zero bits (ReLUGrad)
//	ANYNAN(r, g)      g is not zero if a lane of r is a NaN; r is scratch
//	NONZERO(mem, g)   g = one bit per lane of the vector at mem, set where the
//	                  lane is not ±0 (a NaN is not)
//	COLUMNS(g, t)     from here on LOADW and STOREW move the first g columns
//	                  of a vector, g in [1, LANES]; t is scratch
//	LOADW(mem, r)     r = those columns of the vector at mem, +0 in the rest;
//	                  nothing beyond them is read
//	STOREW(r, mem)    the reverse; nothing beyond them is written
//	MADD(p, a, m, t, k)
//	                  a = (p)·B + a, one fused multiply-add, in every lane,
//	                  unless the multiplier at p is ±0: then a stays as it
//	                  is. m, t and the opmask k are scratch.
//	GATHER(p, r)      r = the LANES multipliers at p plus the byte offsets in
//	                  B's lanes (rowArgs.aLanes); T2 or K2 is scratch
//	LANESHIFT         log2 of LANES
//	NEXTWORD          the symbol of the wide kernel's mask subroutine
//
// And for the packed logarithm (log_amd64.h), which takes its registers from
// the same sixteen:
//
//	AND(a, b, r)      r = a & b, bit for bit; OR likewise
//	LOGGABLE(x, t, u, g)
//	                  g = one bit per lane of x, set where the lane is
//	                  positive, finite and not zero; t and u are scratch
//	ALLLANES          g with every lane's bit set
//	NLTONE(f, c, one, r)
//	                  r = one in the lanes where c < f does not hold, +0 in
//	                  the rest
//
// And for the packed exponential (exp_amd64.h):
//
//	ROUND(r)          r rounded to an integer, to nearest even, lane by lane
//	EXPABLE(k, t, u, g)
//	                  g = one bit per lane of k, set where -1022 <= k <= 1023
//	                  (so not where k is a NaN); t and u are scratch
//
// And for the packed row softmax (softmax_shift_amd64.h,
// softmax_scale_amd64.h), with GATHER above, B holding the rows' offsets:
//
//	MAXSTEP(v, m, t)  m = v in the lanes where v > m, ordered; t is scratch
//	SCATTERSETUP      from the *softmaxArgs in DX, what SCATTER needs
//	SCATTER(p)        T0's lanes to p plus the offsets of the rows; T1 is
//	                  scratch

// Eight lanes: AVX-512.
#define A0 Z0
#define A1 Z1
#define A2 Z2
#define A3 Z3
#define A4 Z4
#define A5 Z5
#define A6 Z6
#define A7 Z7
#define B Z8
#define ZR Z9
#define M0 Z10
#define M1 Z11
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
#define ZERO(r) VPXORQ r, r, r
// The sign bit smeared over the lane clears what tensor.ReLU clears:
// negative values, -0 and NaNs with the sign set.
#define RELU(r) VPSRAQ $63, r, T0; VPANDNQ r, T0, r
#define GATE(t, r) VPTESTMQ t, t, K1; VMOVAPD.Z r, K1, r
// Predicate 4 is "not equal, or unordered", 3 is "unordered".
#define NONZERO(mem, g) VCMPPD $4, mem, ZR, K1; KMOVW K1, g
#define ANYNAN(r, g) VCMPPD $3, r, r, K1; KMOVW K1, g
// The columns are opmask K7.
#define COLUMNS(g, t) MOVQ g, CX; MOVL $1, t; SHLQ CX, t; DECQ t; KMOVW t, K7
#define LOADW(mem, r) VMOVUPD.Z mem, K7, r
#define STOREW(r, mem) VMOVUPD r, K7, mem
#define MADD(p, a, m, t, k) \
	VBROADCASTSD (p), m; VCMPPD $4, ZR, m, k; VFMADD231PD B, m, k, a
#define GATHER(p, r) KXNORW K2, K2, K2; VGATHERQPD (p)(B*1), K2, r
#define LANESHIFT 3
#define NEXTWORD nextWord8<>(SB)
#define AND(a, b, r) VPANDQ a, b, r
#define OR(a, b, r) VPORQ a, b, r
// Predicate 0x1e is "greater, ordered", 0x11 "less, ordered", 5 "not less".
#define LOGGABLE(x, t, u, g) \
	VPXORQ t, t, t; VCMPPD $0x1e, t, x, K1; VBROADCASTSD logInf<>(SB), u; VCMPPD $0x11, u, x, K1, K2; KMOVW K2, g
#define ALLLANES 0xff
#define NLTONE(f, c, one, r) VCMPPD $5, f, c, K1; VMOVAPD.Z one, K1, r
// Predicate 0x1d is "greater or equal, ordered", 0x12 "less or equal,
// ordered".
#define ROUND(r) VRNDSCALEPD $0, r, r
#define EXPABLE(k, t, u, g) \
	VBROADCASTSD expKMin<>(SB), t; VCMPPD $0x1d, t, k, K1; VBROADCASTSD expKMax<>(SB), u; VCMPPD $0x12, u, k, K1, K2; KMOVW K2, g
#define MAXSTEP(v, m, t) VCMPPD $0x1e, m, v, K1; VMOVAPD v, K1, m
#define SCATTERSETUP VMOVUPD softmaxArgs_lanes(DX), B
#define SCATTER(p) KXNORW K2, K2, K2; VSCATTERQPD T0, K2, (p)(B*1)

// func rowsWide8(p *rowArgs)
TEXT ·rowsWide8(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DX
#include "rows_wide_amd64.h"

// func rowsNarrow8(p *rowArgs)
TEXT ·rowsNarrow8(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DX
#include "rows_narrow_amd64.h"

// func logVectors8(dst, src *float64, n int) int
TEXT ·logVectors8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
#include "log_amd64.h"

// func expVectors8(dst, src *float64, n int) int
TEXT ·expVectors8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
#include "exp_amd64.h"

// func softmaxShift8(p *softmaxArgs)
TEXT ·softmaxShift8(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DX
#include "softmax_shift_amd64.h"

// func softmaxScale8(p *softmaxArgs)
TEXT ·softmaxScale8(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DX
#include "softmax_scale_amd64.h"

#define ADAM ·adamVectors8(SB)
#define POLYAK ·polyakVectors8(SB)
#include "optim_amd64.h"
#undef ADAM
#undef POLYAK

#undef A0
#undef A1
#undef A2
#undef A3
#undef A4
#undef A5
#undef A6
#undef A7
#undef B
#undef ZR
#undef M0
#undef M1
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
#undef GATE
#undef NONZERO
#undef ANYNAN
#undef COLUMNS
#undef LOADW
#undef STOREW
#undef MADD
#undef NEXTWORD
#undef GATHER
#undef LANESHIFT
#undef AND
#undef OR
#undef LOGGABLE
#undef ALLLANES
#undef NLTONE
#undef ROUND
#undef EXPABLE
#undef MAXSTEP
#undef SCATTERSETUP
#undef SCATTER

// Four lanes: AVX2.
#define A0 Y0
#define A1 Y1
#define A2 Y2
#define A3 Y3
#define A4 Y4
#define A5 Y5
#define A6 Y6
#define A7 Y7
#define B Y8
#define ZR Y9
#define M0 Y10
#define M1 Y11
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
// AVX2 has no 64-bit arithmetic shift: compare with zero instead.
#define RELU(r) VPCMPGTQ r, ZR, T0; VPANDN r, T0, r
#define GATE(t, r) VPCMPEQQ t, ZR, t; VPANDN r, t, r
#define NONZERO(mem, g) VCMPPD $4, mem, ZR, T0; VMOVMSKPD T0, g
#define ANYNAN(r, g) VCMPPD $3, r, r, r; VMOVMSKPD r, g
// The columns are a vector mask in T3, cut out of four set lanes followed by
// four clear ones.
#define COLUMNS(g, t) MOVQ g, CX; NEGQ CX; LEAQ columns4<>+32(SB), t; VMOVDQU (t)(CX*8), T3
#define LOADW(mem, r) VMASKMOVPD mem, T3, r
#define STOREW(r, mem) VMASKMOVPD r, T3, mem
// No masked multiply-add either: fuse into a copy of a, then keep the sum
// where the multiplier was not zero.
#define MADD(p, a, m, t, k) \
	VBROADCASTSD (p), m; VMOVAPD a, t; VFMADD231PD B, m, t; VCMPPD $4, ZR, m, m; VBLENDVPD m, t, a, a
#define GATHER(p, r) VPCMPEQQ T2, T2, T2; VGATHERQPD T2, (p)(B*1), r
#define LANESHIFT 2
#define NEXTWORD nextWord4<>(SB)
#define AND(a, b, r) VPAND a, b, r
#define OR(a, b, r) VPOR a, b, r
#define LOGGABLE(x, t, u, g) \
	VPXOR t, t, t; VCMPPD $0x1e, t, x, t; VBROADCASTSD logInf<>(SB), u; VCMPPD $0x11, u, x, u; VANDPD t, u, t; VMOVMSKPD t, g
#define ALLLANES 0xf
#define NLTONE(f, c, one, r) VCMPPD $5, f, c, r; VANDPD one, r, r
#define ROUND(r) VROUNDPD $0, r, r
#define EXPABLE(k, t, u, g) \
	VBROADCASTSD expKMin<>(SB), t; VCMPPD $0x1d, t, k, t; VBROADCASTSD expKMax<>(SB), u; VCMPPD $0x12, u, k, u; VANDPD t, u, t; VMOVMSKPD t, g
#define MAXSTEP(v, m, t) VCMPPD $0x1e, m, v, t; VBLENDVPD t, v, m, m
// No scatter before AVX-512: T0's halves go out a lane at a time, to rows
// R12 bytes apart (R13 is three of them).
#define SCATTERSETUP MOVQ softmaxArgs_pitch(DX), R12; LEAQ (R12)(R12*2), R13
#define SCATTER(p) \
	VMOVLPD X12, (p); VMOVHPD X12, (p)(R12*1); VEXTRACTF128 $1, Y12, X13; VMOVLPD X13, (p)(R12*2); VMOVHPD X13, (p)(R13*1)

DATA columns4<>+0(SB)/8, $-1
DATA columns4<>+8(SB)/8, $-1
DATA columns4<>+16(SB)/8, $-1
DATA columns4<>+24(SB)/8, $-1
DATA columns4<>+32(SB)/8, $0
DATA columns4<>+40(SB)/8, $0
DATA columns4<>+48(SB)/8, $0
DATA columns4<>+56(SB)/8, $0
GLOBL columns4<>(SB), RODATA|NOPTR, $64

// func rowsWide4(p *rowArgs)
TEXT ·rowsWide4(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DX
#include "rows_wide_amd64.h"

// func rowsNarrow4(p *rowArgs)
TEXT ·rowsNarrow4(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DX
#include "rows_narrow_amd64.h"

// func logVectors4(dst, src *float64, n int) int
TEXT ·logVectors4(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
#include "log_amd64.h"

// func expVectors4(dst, src *float64, n int) int
TEXT ·expVectors4(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
#include "exp_amd64.h"

// func softmaxShift4(p *softmaxArgs)
TEXT ·softmaxShift4(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DX
#include "softmax_shift_amd64.h"

// func softmaxScale4(p *softmaxArgs)
TEXT ·softmaxScale4(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DX
#include "softmax_scale_amd64.h"

#define ADAM ·adamVectors4(SB)
#define POLYAK ·polyakVectors4(SB)
#include "optim_amd64.h"

// math.archLog's constants, by their bits, and what the exponent's trip from
// integer to double needs: 2^52 and 2^52 + 1022.
#define LOGCONST(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $8
LOGCONST(logMantissa, 0x000fffffffffffff)
LOGCONST(logHalf, 0x3fe0000000000000)
LOGCONST(logOne, 0x3ff0000000000000)
LOGCONST(logTwo, 0x4000000000000000)
LOGCONST(logInf, 0x7ff0000000000000)
LOGCONST(logTwo52, 0x4330000000000000)
LOGCONST(logTwo52Bias, 0x43300000000003fe)
LOGCONST(logHSqrt2, 0x3fe6a09e667f3bcd)
LOGCONST(logLn2Hi, 0x3fe62e42fee00000)
LOGCONST(logLn2Lo, 0x3dea39ef35793c76)
LOGCONST(logL1, 0x3fe5555555555593)
LOGCONST(logL2, 0x3fd999999997fa04)
LOGCONST(logL3, 0x3fd2492494229359)
LOGCONST(logL4, 0x3fcc71c51d8e78af)
LOGCONST(logL5, 0x3fc7466496cb03de)
LOGCONST(logL6, 0x3fc39a09d078c69f)
LOGCONST(logL7, 0x3fc2f112df3e5244)

// math.archExp's constants, by the bits its decimal literals round to, and
// the bounds of k and the bias the scale is built with.
LOGCONST(expLog2e, 0x3ff71547652b82fe)
LOGCONST(expLn2Hi, 0x3fe62e42fefa3000)
LOGCONST(expLn2Lo, 0x3d53de6af278ece6)
LOGCONST(expSixteenth, 0x3fb0000000000000)
LOGCONST(expT8, 0x3efa01a01a01a01a)
LOGCONST(expT7, 0x3f2a01a01a01a01a)
LOGCONST(expT6, 0x3f56c16c16c16c17)
LOGCONST(expT5, 0x3f81111111111111)
LOGCONST(expT4, 0x3fa5555555555555)
LOGCONST(expT3, 0x3fc5555555555555)
LOGCONST(expHalf, 0x3fe0000000000000)
LOGCONST(expOne, 0x3ff0000000000000)
LOGCONST(expTwo, 0x4000000000000000)
LOGCONST(expTwo52Bias, 0x43300000000003ff)
LOGCONST(expKMin, 0xc08ff00000000000)
LOGCONST(expKMax, 0x408ff80000000000)

// func cpuHasAVX2() bool
//
// The four-lane body is usable when CPUID reports AVX2 and BMI1 — the bit-mask
// walk is TZCNT and BLSR — (leaf 7, EBX bits 5 and 3), reports AVX and OSXSAVE
// (leaf 1, ECX bits 28 and 27), and XCR0 says the OS saves and restores both
// the XMM and the YMM halves of the registers (bits 1 and 2).
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
	ANDL $0x28, BX
	CMPL BX, $0x28
	JNE  done
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

// func cpuHasFMA() bool
//
// On a CPU that passed cpuHasAVX2, which has checked AVX and the OS's saving
// of the YMM halves: CPUID reports FMA (leaf 1, ECX bit 12). Every resident
// body needs it — each product step is a VFMADD231PD — and with AVX and FMA
// math.Exp takes its fused branch, the one Exp's packed body transcribes.
TEXT ·cpuHasFMA(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $12, CX
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET
