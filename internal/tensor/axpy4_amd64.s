#include "textflag.h"

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

// func axpy4BlocksAVX2(d *float64, n int, a *float64, aStride int, b *float64, count, dStep, aStep, bStep int)
//
// count steps of
//
//	d[j] = (((d[j] + a0·b[j]) + a1·b[n+j]) + a2·b[2n+j]) + a3·b[3n+j],  j in [0, n)
//
// with a0..a3 = a[0], a[aStride], a[2·aStride], a[3·aStride]; a step whose
// four multipliers are all ±0 is skipped; between steps d, a and b advance by
// dStep, aStep and bStep elements. The vector lanes are independent columns
// j: every element sees the same four multiplies and four adds, in the same
// order, each rounded once (VMULPD then VADDPD — a fused multiply-add would
// round once per pair and change the bits), as the Go loop in kernels.go.
// Eight columns at a time, then four, then one by one: within a step nothing
// is read or written at or beyond column n.
TEXT ·axpy4BlocksAVX2(SB), NOSPLIT, $0-72
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), R11
	MOVQ aStride+24(FP), R12
	MOVQ b+32(FP), SI
	MOVQ count+40(FP), BX
	SHLQ $3, R12           // strides and steps in bytes from here on
	LEAQ (R12)(R12*2), R13
	SHLQ $3, dStep+48(FP)
	SHLQ $3, aStep+56(FP)
	SHLQ $3, bStep+64(FP)
	MOVQ CX, DX
	ANDQ $-8, DX           // columns the eight-wide loop covers

step:
	MOVQ (R11), AX
	ORQ  (R11)(R12*1), AX
	ORQ  (R11)(R12*2), AX
	ORQ  (R11)(R13*1), AX
	SHLQ $1, AX            // drop the sign: -0 is a zero too
	JZ   next
	VBROADCASTSD (R11), Y0
	VBROADCASTSD (R11)(R12*1), Y1
	VBROADCASTSD (R11)(R12*2), Y2
	VBROADCASTSD (R11)(R13*1), Y3
	LEAQ (SI)(CX*8), R8    // b rows 1..3
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	XORQ AX, AX            // j
	CMPQ AX, DX
	JAE  four

eight:
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMULPD  (SI)(AX*8), Y0, Y6
	VMULPD  32(SI)(AX*8), Y0, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R8)(AX*8), Y1, Y8
	VMULPD  32(R8)(AX*8), Y1, Y9
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VMULPD  (R9)(AX*8), Y2, Y10
	VMULPD  32(R9)(AX*8), Y2, Y11
	VADDPD  Y10, Y4, Y4
	VADDPD  Y11, Y5, Y5
	VMULPD  (R10)(AX*8), Y3, Y12
	VMULPD  32(R10)(AX*8), Y3, Y13
	VADDPD  Y12, Y4, Y4
	VADDPD  Y13, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JB      eight

four:
	TESTQ $4, CX
	JZ    tail
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (SI)(AX*8), Y0, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R8)(AX*8), Y1, Y8
	VADDPD  Y8, Y4, Y4
	VMULPD  (R9)(AX*8), Y2, Y10
	VADDPD  Y10, Y4, Y4
	VMULPD  (R10)(AX*8), Y3, Y12
	VADDPD  Y12, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX

tail:
	CMPQ AX, CX
	JAE  next
	VMOVSD (DI)(AX*8), X4
	VMULSD (SI)(AX*8), X0, X6
	VADDSD X6, X4, X4
	VMULSD (R8)(AX*8), X1, X8
	VADDSD X8, X4, X4
	VMULSD (R9)(AX*8), X2, X10
	VADDSD X10, X4, X4
	VMULSD (R10)(AX*8), X3, X12
	VADDSD X12, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    tail

next:
	ADDQ dStep+48(FP), DI
	ADDQ aStep+56(FP), R11
	ADDQ bStep+64(FP), SI
	DECQ BX
	JNZ  step
	VZEROUPPER
	RET
