//go:build amd64 && !purego

#include "textflag.h"

// func dot8(acc *[MaxDotRows][4]float32, rows *[MaxDotRows]*uint16, q *float32, chunks int)
//
// Lane j of acc[r] sums row r's elements j, j+4, j+8, … times the query's,
// over chunks 4-wide chunks: Dot's four accumulators, one XMM register per
// row. Each step widens four halves exactly (VCVTPH2PS), multiplies by the
// query chunk loaded once for all eight rows, then adds, rounding the
// product and the sum separately as Go does.
TEXT ·dot8(SB), NOSPLIT, $0-32
	MOVQ rows+8(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ 32(AX), R12
	MOVQ 40(AX), R13
	MOVQ 48(AX), BX
	MOVQ 56(AX), DX
	MOVQ q+16(FP), SI
	MOVQ chunks+24(FP), CX
	XORQ DI, DI // byte offset into the rows; the query's is twice it

	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	VXORPS X6, X6, X6
	VXORPS X7, X7, X7

	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPS (SI)(DI*2), X8

	VCVTPH2PS (R8)(DI*1), X9
	VCVTPH2PS (R9)(DI*1), X10
	VCVTPH2PS (R10)(DI*1), X11
	VCVTPH2PS (R11)(DI*1), X12
	VMULPS    X8, X9, X9
	VMULPS    X8, X10, X10
	VMULPS    X8, X11, X11
	VMULPS    X8, X12, X12
	VADDPS    X9, X0, X0
	VADDPS    X10, X1, X1
	VADDPS    X11, X2, X2
	VADDPS    X12, X3, X3

	VCVTPH2PS (R12)(DI*1), X13
	VCVTPH2PS (R13)(DI*1), X14
	VCVTPH2PS (BX)(DI*1), X15
	VCVTPH2PS (DX)(DI*1), X9
	VMULPS    X8, X13, X13
	VMULPS    X8, X14, X14
	VMULPS    X8, X15, X15
	VMULPS    X8, X9, X9
	VADDPS    X13, X4, X4
	VADDPS    X14, X5, X5
	VADDPS    X15, X6, X6
	VADDPS    X9, X7, X7

	ADDQ $8, DI
	DECQ CX
	JNZ  loop

done:
	MOVQ    acc+0(FP), AX
	VMOVUPS X0, 0(AX)
	VMOVUPS X1, 16(AX)
	VMOVUPS X2, 32(AX)
	VMOVUPS X3, 48(AX)
	VMOVUPS X4, 64(AX)
	VMOVUPS X5, 80(AX)
	VMOVUPS X6, 96(AX)
	VMOVUPS X7, 112(AX)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
