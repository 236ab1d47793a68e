// The packed natural logarithm under tensor.Log, included once per vector
// width by rows_amd64.s, which defines the registers (A0-A7, B, M0-M1, T0-T3)
// and AND, OR, LOGGABLE, NLTONE and ALLLANES for that width. On entry DI holds
// dst, SI src and CX the element count.
//
// This is math.archLog ($GOROOT/src/math/log_amd64.s), which is what math.Log
// runs on amd64, with every scalar instruction replaced by its packed twin in
// the same order: the same constants, the same tree of multiplies, adds,
// subtracts and the one divide, each rounded once — no fused multiply-add —
// so a lane holds the bits the scalar routine returns. That routine is
// straight-line for an input that is positive, finite and not zero
// (subnormals included: it does not normalise them, and neither does this),
// and returns a constant or its argument for everything else; a vector with
// any lane of that other kind is not computed here at all. The loop stops in
// front of it and says how far it got: Log (log.go) runs math.Log over those
// lanes and calls again. Whole vectors only: what is left of the count below
// LANES is the caller's too, so nothing at or beyond the count is read or
// written. src is loaded before dst is stored, so dst may be src.
//
// The one step with no packed twin before AVX-512DQ is CVTSL2SD, the integer
// exponent made a double: the biased exponent, an integer below 2048, is
// OR-ed into the mantissa of 2^52, which makes the double 2^52 + e exactly,
// and 2^52 + 1022 is subtracted, which is exact as well.

#define X A0   // the input's bits
#define F A1   // f1, then f
#define KK A2  // k
#define S A3   // s, then s·(hfsq+R) + k·Ln2Lo
#define S2 A4  // s², then t1, then R, then hfsq + R
#define S4 A5  // s⁴, then t2
#define R A6   // the Horner chain in flight
#define H A7   // hfsq, then the bracket that is subtracted from k·Ln2Hi
#define ONE M0
#define C T0   // a constant, broadcast where it is used
#define D T1

#define CONST(name, r) VBROADCASTSD name<>(SB), r

	XORQ AX, AX // elements done
	CONST(logOne, ONE)

vector:
	LEAQ LANES(AX), BX
	CMPQ BX, CX
	JA   done
	VMOVUPD (SI)(AX*8), X
	LOGGABLE(X, C, D, BX)
	CMPL BX, $ALLLANES
	JNE  done

	// f1, ki := math.Frexp(x); k := float64(ki)
	CONST(logMantissa, C)
	AND(C, X, F)
	CONST(logHalf, C)
	OR(C, F, F)
	VPSRLQ $52, X, KK
	CONST(logTwo52, C)
	OR(C, KK, KK)
	CONST(logTwo52Bias, C)
	VSUBPD C, KK, KK
	// if f1 < math.Sqrt2/2 { k -= 1; f1 *= 2 } — as archLog has it, "not
	// √2/2 < f1", by an and with one and no branch.
	CONST(logHSqrt2, C)
	NLTONE(F, C, ONE, D)
	VSUBPD D, KK, KK
	VADDPD ONE, D, D
	VMULPD D, F, F
	// f := f1 - 1
	VSUBPD ONE, F, F
	// s := f / (2 + f)
	CONST(logTwo, C)
	VADDPD F, C, C
	VDIVPD C, F, S
	// s2 := s * s; s4 := s2 * s2
	VMULPD S, S, S2
	VMULPD S2, S2, S4
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	CONST(logL7, R)
	VMULPD S4, R, R
	CONST(logL5, C)
	VADDPD C, R, R
	VMULPD S4, R, R
	CONST(logL3, C)
	VADDPD C, R, R
	VMULPD S4, R, R
	CONST(logL1, C)
	VADDPD C, R, R
	VMULPD R, S2, S2
	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	CONST(logL6, R)
	VMULPD S4, R, R
	CONST(logL4, C)
	VADDPD C, R, R
	VMULPD S4, R, R
	CONST(logL2, C)
	VADDPD C, R, R
	VMULPD R, S4, S4
	// R := t1 + t2
	VADDPD S4, S2, S2
	// hfsq := 0.5 * f * f
	CONST(logHalf, H)
	VMULPD F, H, H
	VMULPD F, H, H
	// return k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD H, S2, S2
	VMULPD S2, S, S
	CONST(logLn2Lo, C)
	VMULPD KK, C, C
	VADDPD C, S, S
	VSUBPD S, H, H
	VSUBPD F, H, H
	CONST(logLn2Hi, C)
	VMULPD C, KK, KK
	VSUBPD H, KK, KK
	VMOVUPD KK, (DI)(AX*8)
	ADDQ $LANES, AX
	JMP  vector

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

#undef X
#undef F
#undef KK
#undef S
#undef S2
#undef S4
#undef R
#undef H
#undef ONE
#undef C
#undef D
#undef CONST
