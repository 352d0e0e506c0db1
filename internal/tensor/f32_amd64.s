#include "textflag.h"

// func f32StripsSSE(out, a, b []float32, rows, inner, cols int)
//
// For each 8-column strip of b, rows of a go four at a time, then one at a
// time. Registers:
//
//	BX  strip offset j·4            R10 end of the strips, (cols &^ 7)·4
//	R11 b and out row stride        R12 a row stride, R13 = 3·R12
//	SI  a at row i                  DI  out at row i, column j
//	CX  rows left in the strip      R9  k steps left
//	AX  a at row i, column k        DX  b at row k, column j
//	X0–X7  accumulators: row r's lanes 0–3 in X(2r), 4–7 in X(2r+1)
//	X8, X9 b's strip row k          X10 a[i+r, k] in every lane
//	X11, X12 products (the last row and the one-row loop use X8, X9)
//
// Products are formed as b·a and sums as c+p, the operand order Go's
// scalar loop compiles to, so even a NaN keeps the scalar kernel's bits.
TEXT ·f32StripsSSE(SB), NOSPLIT, $0-96
	MOVQ cols+88(FP), R11
	MOVQ R11, R10
	ANDQ $-8, R10
	SHLQ $2, R10
	SHLQ $2, R11
	MOVQ inner+80(FP), R12
	SHLQ $2, R12
	LEAQ (R12)(R12*2), R13
	XORQ BX, BX

strip:
	CMPQ BX, R10
	JGE  done
	MOVQ a_base+24(FP), SI
	MOVQ out_base+0(FP), DI
	ADDQ BX, DI
	MOVQ rows+72(FP), CX

block4:
	CMPQ   CX, $4
	JLT    row1
	XORPS  X0, X0
	XORPS  X1, X1
	XORPS  X2, X2
	XORPS  X3, X3
	XORPS  X4, X4
	XORPS  X5, X5
	XORPS  X6, X6
	XORPS  X7, X7
	MOVQ   SI, AX
	MOVQ   b_base+48(FP), DX
	ADDQ   BX, DX
	MOVQ   inner+80(FP), R9
	TESTQ  R9, R9
	JEQ    store4

k4:
	MOVUPS (DX), X8
	MOVUPS 16(DX), X9

	MOVSS  (AX), X10
	SHUFPS $0x00, X10, X10
	MOVAPS X8, X11
	MOVAPS X9, X12
	MULPS  X10, X11
	MULPS  X10, X12
	ADDPS  X11, X0
	ADDPS  X12, X1

	MOVSS  (AX)(R12*1), X10
	SHUFPS $0x00, X10, X10
	MOVAPS X8, X11
	MOVAPS X9, X12
	MULPS  X10, X11
	MULPS  X10, X12
	ADDPS  X11, X2
	ADDPS  X12, X3

	MOVSS  (AX)(R12*2), X10
	SHUFPS $0x00, X10, X10
	MOVAPS X8, X11
	MOVAPS X9, X12
	MULPS  X10, X11
	MULPS  X10, X12
	ADDPS  X11, X4
	ADDPS  X12, X5

	MOVSS  (AX)(R13*1), X10
	SHUFPS $0x00, X10, X10
	MULPS  X10, X8
	MULPS  X10, X9
	ADDPS  X8, X6
	ADDPS  X9, X7

	ADDQ   $4, AX
	ADDQ   R11, DX
	DECQ   R9
	JNZ    k4

store4:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, (DI)(R11*1)
	MOVUPS X3, 16(DI)(R11*1)
	MOVUPS X4, (DI)(R11*2)
	MOVUPS X5, 16(DI)(R11*2)
	LEAQ   (DI)(R11*2), AX
	ADDQ   R11, AX
	MOVUPS X6, (AX)
	MOVUPS X7, 16(AX)
	LEAQ   (SI)(R12*4), SI
	LEAQ   (DI)(R11*4), DI
	SUBQ   $4, CX
	JMP    block4

row1:
	TESTQ  CX, CX
	JEQ    nextstrip
	XORPS  X0, X0
	XORPS  X1, X1
	MOVQ   SI, AX
	MOVQ   b_base+48(FP), DX
	ADDQ   BX, DX
	MOVQ   inner+80(FP), R9
	TESTQ  R9, R9
	JEQ    store1

k1:
	MOVUPS (DX), X8
	MOVUPS 16(DX), X9
	MOVSS  (AX), X10
	SHUFPS $0x00, X10, X10
	MULPS  X10, X8
	MULPS  X10, X9
	ADDPS  X8, X0
	ADDPS  X9, X1
	ADDQ   $4, AX
	ADDQ   R11, DX
	DECQ   R9
	JNZ    k1

store1:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   R12, SI
	ADDQ   R11, DI
	DECQ   CX
	JMP    row1

nextstrip:
	ADDQ $32, BX
	JMP  strip

done:
	RET
