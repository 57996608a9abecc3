#include "textflag.h"

// func dot4Acc4(acc *[16]float64, a *float64, stride int, x *float64, n int)
//
// Four rows of dot4's strided accumulation in one pass over x. Row r starts at a + r*stride
// (elements); its four accumulators acc[4r:4r+4] ride as (s0,s1) and
// (s2,s3) in two XMM registers. Per 4 columns, x is loaded once and every
// row does MOVUPD a / MULPD x / ADDPD into its accumulators: the product
// a*x rounded, then s_k + a*x rounded, as dot4Acc4Go's MULSD/ADDSD, so
// every accumulator gets dot4Acc4Go's bits. MULPD takes no memory operand: SSE2
// would demand 16-byte alignment there. n is a multiple of 4.
TEXT ·dot4Acc4(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ x+24(FP), BX
	MOVQ n+32(FP), CX
	SHLQ $3, DX
	LEAQ (SI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	SHLQ $3, CX
	XORQ AX, AX

	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVUPD 64(DI), X4
	MOVUPD 80(DI), X5
	MOVUPD 96(DI), X6
	MOVUPD 112(DI), X7

	CMPQ AX, CX
	JGE  done

loop:
	MOVUPD 0(BX)(AX*1), X8
	MOVUPD 16(BX)(AX*1), X9

	MOVUPD 0(SI)(AX*1), X10
	MOVUPD 16(SI)(AX*1), X11
	MULPD  X8, X10
	MULPD  X9, X11
	ADDPD  X10, X0
	ADDPD  X11, X1

	MOVUPD 0(R8)(AX*1), X12
	MOVUPD 16(R8)(AX*1), X13
	MULPD  X8, X12
	MULPD  X9, X13
	ADDPD  X12, X2
	ADDPD  X13, X3

	MOVUPD 0(R9)(AX*1), X10
	MOVUPD 16(R9)(AX*1), X11
	MULPD  X8, X10
	MULPD  X9, X11
	ADDPD  X10, X4
	ADDPD  X11, X5

	MOVUPD 0(R10)(AX*1), X12
	MOVUPD 16(R10)(AX*1), X13
	MULPD  X8, X12
	MULPD  X9, X13
	ADDPD  X12, X6
	ADDPD  X13, X7

	ADDQ $32, AX
	CMPQ AX, CX
	JLT  loop

done:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	RET
