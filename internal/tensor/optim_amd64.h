// The optimizer steps (optim.go), included once per vector width by
// rows_amd64.s, which names the two functions (ADAM, POLYAK) and defines the
// registers and LANES, LANESHIFT for that width. Each runs whole vectors
// only, of the count it is given, and performs per lane the operations of
// its Go loop in the loop's order, each one rounded: VMULPD, VADDPD, VSUBPD,
// VDIVPD, VSQRTPD, never a fused multiply-add (scripts/fma_guard.sh holds
// this file to that). Operands are loaded and stored unaligned.

// func adamVectors(p *adamArgs): the scalars in A0-A7, the gradient in T0,
// the moments in T1 and T2.
TEXT ADAM, NOSPLIT, $0-8
	MOVQ p+0(FP), DX
	MOVQ adamArgs_p(DX), DI
	MOVQ adamArgs_g(DX), SI
	MOVQ adamArgs_m(DX), R8
	MOVQ adamArgs_v(DX), R9
	MOVQ adamArgs_n(DX), CX
	SHRQ $LANESHIFT, CX
	VBROADCASTSD adamArgs_beta1(DX), A0
	VBROADCASTSD adamArgs_keep1(DX), A1
	VBROADCASTSD adamArgs_beta2(DX), A2
	VBROADCASTSD adamArgs_keep2(DX), A3
	VBROADCASTSD adamArgs_correct1(DX), A4
	VBROADCASTSD adamArgs_correct2(DX), A5
	VBROADCASTSD adamArgs_lr(DX), A6
	VBROADCASTSD adamArgs_eps(DX), A7

adam:
	VMOVUPD (SI), T0
	VMULPD  (R8), A0, T1       // β₁·m
	VMULPD  T0, A1, T3         // (1−β₁)·g
	VADDPD  T3, T1, T1         // m
	VMOVUPD T1, (R8)
	VMULPD  (R9), A2, T2       // β₂·v
	VMULPD  T0, A3, T3         // (1−β₂)·g
	VMULPD  T0, T3, T3         // ·g
	VADDPD  T3, T2, T2         // v
	VMOVUPD T2, (R9)
	VDIVPD  A4, T1, T1         // m/(1−β₁ᵗ)
	VDIVPD  A5, T2, T2         // v/(1−β₂ᵗ)
	VSQRTPD T2, T2
	VADDPD  A7, T2, T2         // + ε
	VMULPD  T1, A6, T1         // lr·
	VDIVPD  T2, T1, T1
	VMOVUPD (DI), T3
	VSUBPD  T1, T3, T3         // p − the step
	VMOVUPD T3, (DI)
	ADDQ    $(8*LANES), DI
	ADDQ    $(8*LANES), SI
	ADDQ    $(8*LANES), R8
	ADDQ    $(8*LANES), R9
	DECQ    CX
	JNZ     adam
	VZEROUPPER
	RET

// func polyakVectors(dst, src *float64, n int, tau, keep float64): τ in A0,
// 1 − τ in A1.
TEXT POLYAK, NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $LANESHIFT, CX
	VBROADCASTSD tau+24(FP), A0
	VBROADCASTSD keep+32(FP), A1

polyak:
	VMULPD  (SI), A0, T0       // τ·src
	VMULPD  (DI), A1, T1       // (1−τ)·dst
	VADDPD  T1, T0, T0
	VMOVUPD T0, (DI)
	ADDQ    $(8*LANES), DI
	ADDQ    $(8*LANES), SI
	DECQ    CX
	JNZ     polyak
	VZEROUPPER
	RET
