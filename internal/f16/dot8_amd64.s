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

// func dotI8(out *int32, rows *int8, n, stride int, q *int16, chunks int)
//
// out[i] = the sum over the first 16*chunks elements of row i (int8, rows
// stride bytes apart) times q's (int16). Each step sign-extends 16 codes to
// words (VPMOVSXBW), multiplies them by the query chunk and adds adjacent
// pairs into eight dwords (VPMADDWD), then accumulates (VPADDD). Rows go
// four at a time, sharing each query load, then one at a time.
TEXT ·dotI8(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ stride+24(FP), R8
	MOVQ q+32(FP), DX
	MOVQ chunks+40(FP), R9

quad:
	CMPQ CX, $4
	JLT  single
	LEAQ (SI)(R8*1), R11
	LEAQ (SI)(R8*2), R12
	LEAQ (R11)(R8*2), R13
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ AX, AX // byte offset into the rows; the query's is twice it
	MOVQ R9, BX

quadloop:
	VMOVDQU   (DX)(AX*2), Y4
	VPMOVSXBW (SI)(AX*1), Y5
	VPMOVSXBW (R11)(AX*1), Y6
	VPMOVSXBW (R12)(AX*1), Y7
	VPMOVSXBW (R13)(AX*1), Y8
	VPMADDWD  Y4, Y5, Y5
	VPMADDWD  Y4, Y6, Y6
	VPMADDWD  Y4, Y7, Y7
	VPMADDWD  Y4, Y8, Y8
	VPADDD    Y5, Y0, Y0
	VPADDD    Y6, Y1, Y1
	VPADDD    Y7, Y2, Y2
	VPADDD    Y8, Y3, Y3
	ADDQ      $16, AX
	DECQ      BX
	JNZ       quadloop

	// Fold each row's eight dwords: after the three horizontal adds, dword
	// r of the low lane plus dword r of the high lane is row r's sum.
	VPHADDD      Y1, Y0, Y0
	VPHADDD      Y3, Y2, Y2
	VPHADDD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VMOVDQU      X0, (DI)
	ADDQ         $16, DI
	LEAQ         (SI)(R8*4), SI
	SUBQ         $4, CX
	JMP          quad

single:
	TESTQ CX, CX
	JZ    done
	VPXOR Y0, Y0, Y0
	XORQ  AX, AX
	MOVQ  R9, BX

singleloop:
	VPMOVSXBW (SI)(AX*1), Y5
	VPMADDWD  (DX)(AX*2), Y5, Y5
	VPADDD    Y5, Y0, Y0
	ADDQ      $16, AX
	DECQ      BX
	JNZ       singleloop

	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, (DI)
	ADDQ         $4, DI
	ADDQ         R8, SI
	DECQ         CX
	JMP          single

done:
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
