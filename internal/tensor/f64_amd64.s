#include "textflag.h"

// func f64Axpy(dst []float64, a float64, src []float64)
//
// Eight columns per step in four XMM registers, then pairs, then one.
// Registers:
//
//	DI  dst at column j        SI  src at column j
//	CX  columns left           X0  a in both lanes
//	X1–X4  products src·a      X5–X8  dst, then p+dst in X1–X4
//
// Products are formed as src·a and sums as p+dst, the operand order Go's
// scalar loop compiles to, so even a NaN keeps the scalar kernel's bits.
TEXT ·f64Axpy(SB), NOSPLIT, $0-56
	MOVQ     dst_base+0(FP), DI
	MOVQ     dst_len+8(FP), CX
	MOVSD    a+24(FP), X0
	UNPCKLPD X0, X0
	MOVQ     src_base+32(FP), SI
	SUBQ     $8, CX
	JLT      pairs

loop8:
	MOVUPD (SI), X1
	MOVUPD 16(SI), X2
	MOVUPD 32(SI), X3
	MOVUPD 48(SI), X4
	MULPD  X0, X1
	MULPD  X0, X2
	MULPD  X0, X3
	MULPD  X0, X4
	MOVUPD (DI), X5
	MOVUPD 16(DI), X6
	MOVUPD 32(DI), X7
	MOVUPD 48(DI), X8
	ADDPD  X5, X1
	ADDPD  X6, X2
	ADDPD  X7, X3
	ADDPD  X8, X4
	MOVUPD X1, (DI)
	MOVUPD X2, 16(DI)
	MOVUPD X3, 32(DI)
	MOVUPD X4, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $8, CX
	JGE    loop8

pairs:
	ADDQ $6, CX
	JLT  one

loop2:
	MOVUPD (SI), X1
	MULPD  X0, X1
	MOVUPD (DI), X5
	ADDPD  X5, X1
	MOVUPD X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $2, CX
	JGE    loop2

one:
	ADDQ  $2, CX
	JEQ   done
	MOVSD (SI), X1
	MULSD X0, X1
	MOVSD (DI), X5
	ADDSD X5, X1
	MOVSD X1, (DI)

done:
	RET

// func f64Dot8(out *[8]float64, a, b []float64)
//
// Each step k loads one column of eight rows of b, two rows per register
// (MOVSD the low lane, MOVHPD the high), and multiplies it by a[k] in both
// lanes. Registers:
//
//	SI  a at k                 CX  k steps left
//	DX  b's row 0 at k         R13 b's row 4 at k
//	R11 b's row stride         R12 3·R11
//	X0–X3  sums: out[2m] in X(m)'s low lane, out[2m+1] in its high lane
//	X4–X7  b's rows 2m, 2m+1 at k
//	X8  a[k] in both lanes     X9–X11 products (the last uses X8)
//
// Products are formed as a·b and sums as s+p, the operand order Go's
// scalar loop compiles to, so even a NaN keeps the scalar kernel's bits.
TEXT ·f64Dot8(SB), NOSPLIT, $0-56
	MOVQ   out+0(FP), DI
	MOVQ   a_base+8(FP), SI
	MOVQ   a_len+16(FP), CX
	MOVQ   b_base+32(FP), DX
	MOVUPD (DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVQ   CX, R11
	SHLQ   $3, R11
	LEAQ   (R11)(R11*2), R12
	LEAQ   (DX)(R11*4), R13
	TESTQ  CX, CX
	JEQ    store

loop:
	MOVSD    (DX), X4
	MOVHPD   (DX)(R11*1), X4
	MOVSD    (DX)(R11*2), X5
	MOVHPD   (DX)(R12*1), X5
	MOVSD    (R13), X6
	MOVHPD   (R13)(R11*1), X6
	MOVSD    (R13)(R11*2), X7
	MOVHPD   (R13)(R12*1), X7
	MOVSD    (SI), X8
	UNPCKLPD X8, X8
	MOVAPD   X8, X9
	MULPD    X4, X9
	ADDPD    X9, X0
	MOVAPD   X8, X10
	MULPD    X5, X10
	ADDPD    X10, X1
	MOVAPD   X8, X11
	MULPD    X6, X11
	ADDPD    X11, X2
	MULPD    X7, X8
	ADDPD    X8, X3
	ADDQ     $8, SI
	ADDQ     $8, DX
	ADDQ     $8, R13
	DECQ     CX
	JNZ      loop

store:
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	RET
