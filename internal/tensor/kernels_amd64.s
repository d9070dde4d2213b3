//go:build amd64 && !race

#include "textflag.h"

// SSE2 twins of the portable kernels in kernels.go, bitwise equal to them.
// Packed MULPD/ADDPD/SUBPD round each lane exactly as the scalar
// MULSD/ADDSD/SUBSD the compiler emits for the Go loops, no multiply is
// fused into an add, and every sum keeps its order: a lane of a packed
// register carries the same running value a scalar accumulator or element
// does in the portable code. Bodies take four elements (two registers) per
// iteration; the 0–3 element tails run scalar, as in the Go kernels.
// Loads and stores are MOVUPD, so operands need no 16-byte alignment.

// FOLD leaves dotVec's fold (s0+s1)+(s2+s3) in the low lane of lo, given
// lo = (s0, s1) and hi = (s2, s3); t is scratch.
#define FOLD(lo, hi, t) \
	MOVAPD   lo, t; \
	UNPCKHPD t, t; \
	ADDSD    t, lo; \
	MOVAPD   hi, t; \
	UNPCKHPD t, t; \
	ADDSD    t, hi; \
	ADDSD    hi, lo

// func dotSSE2(a, b []float64) float64
//
// X0 holds dotVec's lanes (s0, s1), X1 holds (s2, s3); the fold is
// (s0+s1)+(s2+s3), then the tail products are added in order.
TEXT ·dotSSE2(SB), NOSPLIT, $0-56
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b_base+24(FP), DI
	XORPD X0, X0
	XORPD X1, X1
	XORQ  AX, AX
	MOVQ  CX, BX
	ANDQ  $-4, BX
	JZ    dotfold

dotloop:
	MOVUPD (SI)(AX*8), X2
	MOVUPD 16(SI)(AX*8), X3
	MOVUPD (DI)(AX*8), X4
	MOVUPD 16(DI)(AX*8), X5
	MULPD  X4, X2
	MULPD  X5, X3
	ADDPD  X2, X0
	ADDPD  X3, X1
	ADDQ   $4, AX
	CMPQ   AX, BX
	JB     dotloop

dotfold:
	FOLD(X0, X1, X2)
	CMPQ AX, CX
	JAE  dotdone

dottail:
	MOVSD (SI)(AX*8), X2
	MULSD (DI)(AX*8), X2
	ADDSD X2, X0
	INCQ  AX
	CMPQ  AX, CX
	JB    dottail

dotdone:
	MOVSD X0, ret+48(FP)
	RET

// func dot2SSE2(a, x, y []float64) (s, u float64)
//
// Two dotSSE2 sums sharing the loads of a: X0, X1 hold the lanes of s,
// X2, X3 the lanes of u.
TEXT ·dot2SSE2(SB), NOSPLIT, $0-88
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  x_base+24(FP), DI
	MOVQ  y_base+48(FP), DX
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORQ  AX, AX
	MOVQ  CX, BX
	ANDQ  $-4, BX
	JZ    dot2fold

dot2loop:
	MOVUPD (SI)(AX*8), X4
	MOVUPD 16(SI)(AX*8), X5
	MOVUPD (DI)(AX*8), X6
	MOVUPD 16(DI)(AX*8), X7
	MULPD  X4, X6
	MULPD  X5, X7
	ADDPD  X6, X0
	ADDPD  X7, X1
	MOVUPD (DX)(AX*8), X6
	MOVUPD 16(DX)(AX*8), X7
	MULPD  X4, X6
	MULPD  X5, X7
	ADDPD  X6, X2
	ADDPD  X7, X3
	ADDQ   $4, AX
	CMPQ   AX, BX
	JB     dot2loop

dot2fold:
	FOLD(X0, X1, X4)
	FOLD(X2, X3, X4)
	CMPQ AX, CX
	JAE  dot2done

dot2tail:
	MOVSD (SI)(AX*8), X4
	MOVSD (DI)(AX*8), X6
	MULSD X4, X6
	ADDSD X6, X0
	MULSD (DX)(AX*8), X4
	ADDSD X4, X2
	INCQ  AX
	CMPQ  AX, CX
	JB    dot2tail

dot2done:
	MOVSD X0, s+72(FP)
	MOVSD X2, u+80(FP)
	RET

// func axpySSE2(a []float64, c float64, b []float64)
//
// a[i] += c*b[i]; X0 holds (c, c).
TEXT ·axpySSE2(SB), NOSPLIT, $0-56
	MOVQ     a_base+0(FP), DI
	MOVQ     a_len+8(FP), CX
	MOVSD    c+24(FP), X0
	UNPCKLPD X0, X0
	MOVQ     b_base+32(FP), SI
	XORQ     AX, AX
	MOVQ     CX, BX
	ANDQ     $-4, BX
	JZ       axpytailcheck

axpyloop:
	MOVUPD (SI)(AX*8), X1
	MOVUPD 16(SI)(AX*8), X2
	MULPD  X0, X1
	MULPD  X0, X2
	MOVUPD (DI)(AX*8), X3
	MOVUPD 16(DI)(AX*8), X4
	ADDPD  X1, X3
	ADDPD  X2, X4
	MOVUPD X3, (DI)(AX*8)
	MOVUPD X4, 16(DI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, BX
	JB     axpyloop

axpytailcheck:
	CMPQ AX, CX
	JAE  axpydone

axpytail:
	MOVSD (SI)(AX*8), X1
	MULSD X0, X1
	ADDSD (DI)(AX*8), X1
	MOVSD X1, (DI)(AX*8)
	INCQ  AX
	CMPQ  AX, CX
	JB    axpytail

axpydone:
	RET

// AXPY8STEP adds c_k*v_k to the running sums of four elements: X8+k holds
// (c_k, c_k), X0 and X2 the sums of elements i, i+1 and i+2, i+3.
#define AXPY8STEP(vk, ck) \
	MOVUPD (vk)(AX*8), X1; \
	MOVUPD 16(vk)(AX*8), X3; \
	MULPD  ck, X1; \
	MULPD  ck, X3; \
	ADDPD  X1, X0; \
	ADDPD  X3, X2

// AXPY8TAIL is AXPY8STEP for the single element i, in X0.
#define AXPY8TAIL(vk, ck) \
	MOVSD (vk)(AX*8), X1; \
	MULSD ck, X1; \
	ADDSD X1, X0

// func axpy8SSE2(a []float64, c []float64, vs [][]float64)
//
// a[i] += c[0]*vs[0][i], ..., then += c[7]*vs[7][i], in that order per
// element, with a[i] held in a register across the eight terms.
TEXT ·axpy8SSE2(SB), NOSPLIT, $0-72
	MOVQ     a_base+0(FP), DI
	MOVQ     a_len+8(FP), CX
	MOVQ     c_base+24(FP), SI
	MOVSD    0(SI), X8
	UNPCKLPD X8, X8
	MOVSD    8(SI), X9
	UNPCKLPD X9, X9
	MOVSD    16(SI), X10
	UNPCKLPD X10, X10
	MOVSD    24(SI), X11
	UNPCKLPD X11, X11
	MOVSD    32(SI), X12
	UNPCKLPD X12, X12
	MOVSD    40(SI), X13
	UNPCKLPD X13, X13
	MOVSD    48(SI), X14
	UNPCKLPD X14, X14
	MOVSD    56(SI), X15
	UNPCKLPD X15, X15

	// Base pointers of vs[0..7]: slice headers are 24 bytes apart.
	MOVQ vs_base+48(FP), SI
	MOVQ 0(SI), R8
	MOVQ 24(SI), R9
	MOVQ 48(SI), R10
	MOVQ 72(SI), R11
	MOVQ 96(SI), R12
	MOVQ 120(SI), R13
	MOVQ 144(SI), DX
	MOVQ 168(SI), SI

	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	JZ   axpy8tailcheck

axpy8loop:
	MOVUPD (DI)(AX*8), X0
	MOVUPD 16(DI)(AX*8), X2
	AXPY8STEP(R8, X8)
	AXPY8STEP(R9, X9)
	AXPY8STEP(R10, X10)
	AXPY8STEP(R11, X11)
	AXPY8STEP(R12, X12)
	AXPY8STEP(R13, X13)
	AXPY8STEP(DX, X14)
	AXPY8STEP(SI, X15)
	MOVUPD X0, (DI)(AX*8)
	MOVUPD X2, 16(DI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, BX
	JB     axpy8loop

axpy8tailcheck:
	CMPQ AX, CX
	JAE  axpy8done

axpy8tail:
	MOVSD (DI)(AX*8), X0
	AXPY8TAIL(R8, X8)
	AXPY8TAIL(R9, X9)
	AXPY8TAIL(R10, X10)
	AXPY8TAIL(R11, X11)
	AXPY8TAIL(R12, X12)
	AXPY8TAIL(R13, X13)
	AXPY8TAIL(DX, X14)
	AXPY8TAIL(SI, X15)
	MOVSD X0, (DI)(AX*8)
	INCQ  AX
	CMPQ  AX, CX
	JB    axpy8tail

axpy8done:
	RET

// MOMSTEP updates elements i+off, i+off+1 with X13 = (mu, mu),
// X14 = (wd, wd), X15 = (lr, lr):
//
//	v = mu*vel + grad + wd*params; vel = v; params -= lr*v
#define MOMSTEP(off, v, g, p, t) \
	MOVUPD off(SI)(AX*8), v; \
	MULPD  X13, v; \
	MOVUPD off(DX)(AX*8), g; \
	ADDPD  g, v; \
	MOVUPD off(DI)(AX*8), p; \
	MOVAPD p, t; \
	MULPD  X14, t; \
	ADDPD  t, v; \
	MOVUPD v, off(SI)(AX*8); \
	MULPD  X15, v; \
	SUBPD  v, p; \
	MOVUPD p, off(DI)(AX*8)

// func momentumSSE2(params, vel, grad []float64, mu, wd, lr float64)
TEXT ·momentumSSE2(SB), NOSPLIT, $0-96
	MOVQ     params_base+0(FP), DI
	MOVQ     params_len+8(FP), CX
	MOVQ     vel_base+24(FP), SI
	MOVQ     grad_base+48(FP), DX
	MOVSD    mu+72(FP), X13
	UNPCKLPD X13, X13
	MOVSD    wd+80(FP), X14
	UNPCKLPD X14, X14
	MOVSD    lr+88(FP), X15
	UNPCKLPD X15, X15
	XORQ     AX, AX
	MOVQ     CX, BX
	ANDQ     $-4, BX
	JZ       momtailcheck

momloop:
	MOMSTEP(0, X0, X1, X2, X3)
	MOMSTEP(16, X4, X5, X6, X7)
	ADDQ $4, AX
	CMPQ AX, BX
	JB   momloop

momtailcheck:
	CMPQ AX, CX
	JAE  momdone

momtail:
	MOVSD (SI)(AX*8), X0
	MULSD X13, X0
	ADDSD (DX)(AX*8), X0
	MOVSD (DI)(AX*8), X2
	MOVAPD X2, X3
	MULSD X14, X3
	ADDSD X3, X0
	MOVSD X0, (SI)(AX*8)
	MULSD X15, X0
	SUBSD X0, X2
	MOVSD X2, (DI)(AX*8)
	INCQ  AX
	CMPQ  AX, CX
	JB    momtail

momdone:
	RET
