#include "textflag.h"

// func Prefetch(row []float64)
//
// One PREFETCHT0 per 64-byte step from the first element, then one for the
// last element: when the row does not start on a line boundary its last
// line is one the stepping misses. Every address is inside the row, and a
// prefetch never faults.
TEXT ·Prefetch(SB), NOSPLIT, $0-24
	MOVQ row_base+0(FP), AX
	MOVQ row_len+8(FP), CX
	TESTQ CX, CX
	JZ   done
	LEAQ -8(AX)(CX*8), DX // the last element
loop:
	PREFETCHT0 (AX)
	ADDQ $64, AX
	CMPQ AX, DX
	JBE  loop
	PREFETCHT0 (DX)
done:
	RET
