// The packed exponential under tensor.Exp, included once per vector width by
// rows_amd64.s, which defines the registers (A0-A7, T0-T3) and ZERO, ROUND,
// EXPABLE and ALLLANES for that width. On entry DI holds dst, SI src and CX
// the element count.
//
// This is the fused branch of math.archExp ($GOROOT/src/math/exp_amd64.s),
// which is what math.Exp runs on amd64 wherever the CPU has AVX and FMA, with
// every scalar instruction replaced by its packed twin in the same order: the
// same constants, the same multiplies, adds and fused multiply-adds, each
// rounded once, so a lane holds the bits the scalar routine returns. It is
// the one file in this package with fused multiply-adds (DESIGN.md §7): they
// are here because the routine it must equal has them in the same places, and
// Exp (exp.go) runs it only on a CPU where math.Exp takes that branch.
//
// The scalar routine is straight-line for an input x whose k, x·Log2e
// rounded to an integer, lies in [-1022, 1023], so that 2^k is a normal
// double; for anything else — a NaN, an infinity, x above Overflow (whose k
// is at least 1024), or an x whose result is subnormal or zero — it returns a
// constant or its argument, or leaves the straight line for a second scaling.
// A vector with any lane of that other kind is not computed here at all: the
// loop stops in front of it and says how far it got, and Exp runs math.Exp
// over those lanes and calls again. Whole vectors only: what is left of the
// count below LANES is the caller's too, so nothing at or beyond the count is
// read or written. src is loaded before dst is stored, so dst may be src.
//
// Two steps have no packed twin before AVX-512DQ. CVTSD2SL and CVTSL2SD, the
// product x·Log2e rounded to an int32 and made a double again, are a round
// to nearest even in place (ROUND), then +0 added, which turns the -0 the
// rounding keeps into the +0 an integer has and changes nothing else. And
// the scale 2^k is built as archExp builds it, k + 1023 shifted into the
// exponent field: k is an integer in [-1022, 1023] by then, so k + (2^52 +
// 1023) is exact and holds k + 1023 in its low mantissa bits, which a shift
// left by 52 moves into place.

#define X A0  // x, then r, the reduced argument, then the result
#define K A1  // k
#define P A2  // the Taylor polynomial, then r + 2
#define S A3  // 2^k
#define PZ A4 // +0
#define C T0  // a constant, broadcast where it is used
#define D T1

#define CONST(name, r) VBROADCASTSD name<>(SB), r

	XORQ AX, AX // elements done
	ZERO(PZ)

vector:
	LEAQ LANES(AX), BX
	CMPQ BX, CX
	JA   done
	VMOVUPD (SI)(AX*8), X
	// k := float64(int32(x * Log2e))
	CONST(expLog2e, K)
	VMULPD X, K, K
	ROUND(K)
	VADDPD PZ, K, K
	EXPABLE(K, C, D, BX)
	CMPL BX, $ALLLANES
	JNE  done

	// x -= k*Ln2Hi; x -= k*Ln2Lo, each fused
	CONST(expLn2Hi, C)
	VFNMADD231PD C, K, X
	CONST(expLn2Lo, C)
	VFNMADD231PD C, K, X
	// x *= 1/16
	CONST(expSixteenth, C)
	VMULPD C, X, X
	// p := ((((((T8*x + T7)*x + T6)*x + T5)*x + T4)*x + T3)*x + 1/2)*x + 1,
	// each step fused
	CONST(expT8, P)
	CONST(expT7, C)
	VFMADD213PD C, X, P
	CONST(expT6, C)
	VFMADD213PD C, X, P
	CONST(expT5, C)
	VFMADD213PD C, X, P
	CONST(expT4, C)
	VFMADD213PD C, X, P
	CONST(expT3, C)
	VFMADD213PD C, X, P
	CONST(expHalf, C)
	VFMADD213PD C, X, P
	CONST(expOne, C)
	VFMADD213PD C, X, P
	// x *= p makes x e^x - 1; y(y + 2) takes e^x - 1 to e^2x - 1, and four
	// of them undo the 1/16: x *= x + 2, three times, then x = (x + 2)*x + 1,
	// the 1 added in the same rounding
	VMULPD P, X, X
	CONST(expTwo, C)
	VADDPD C, X, P
	VMULPD P, X, X
	VADDPD C, X, P
	VMULPD P, X, X
	VADDPD C, X, P
	VMULPD P, X, X
	VADDPD C, X, P
	CONST(expOne, D)
	VFMADD213PD D, P, X
	// return x * 2^k
	CONST(expTwo52Bias, S)
	VADDPD K, S, S
	VPSLLQ $52, S, S
	VMULPD S, X, X
	VMOVUPD X, (DI)(AX*8)
	ADDQ $LANES, AX
	JMP  vector

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

#undef X
#undef K
#undef P
#undef S
#undef PZ
#undef C
#undef D
#undef CONST
