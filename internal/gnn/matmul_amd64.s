//go:build amd64

#include "textflag.h"

// The AVX2 kernels multiply with VMULPS and add with VADDPS, never with a
// fused multiply-add, so every output element gets the same rounded float32
// products and sums, in the same order, as the pure-Go kernels.

// func pairAVX2(o0, o1, a0, a1 *float32, as int, b *float32, bs, k, n int)
//
// For j in [0, n), n a multiple of 8, and kk ascending in [0, k):
//
//	o0[j] += a0[kk·as]·b[kk·bs+j]
//	o1[j] += a1[kk·as]·b[kk·bs+j]
//
// Blocks of 32 columns keep 4 YMM per row in registers for the whole k
// loop; the last columns go 8 at a time.
TEXT ·pairAVX2(SB), NOSPLIT, $0-72
	MOVQ o0+0(FP), DI
	MOVQ o1+8(FP), SI
	MOVQ a0+16(FP), R8
	MOVQ a1+24(FP), R9
	MOVQ as+32(FP), R10
	SHLQ $2, R10
	MOVQ b+40(FP), R11
	MOVQ bs+48(FP), R12
	SHLQ $2, R12
	MOVQ k+56(FP), R13
	MOVQ n+64(FP), R14
	TESTQ R13, R13
	JZ pairdone

pair32:
	CMPQ R14, $32
	JLT pair8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	MOVQ R8, AX
	MOVQ R9, BX
	MOVQ R11, CX
	MOVQ R13, DX

pair32k:
	VBROADCASTSS (AX), Y8
	VBROADCASTSS (BX), Y9
	VMOVUPS (CX), Y10
	VMULPS Y10, Y8, Y11
	VADDPS Y11, Y0, Y0
	VMULPS Y10, Y9, Y12
	VADDPS Y12, Y4, Y4
	VMOVUPS 32(CX), Y10
	VMULPS Y10, Y8, Y11
	VADDPS Y11, Y1, Y1
	VMULPS Y10, Y9, Y12
	VADDPS Y12, Y5, Y5
	VMOVUPS 64(CX), Y10
	VMULPS Y10, Y8, Y11
	VADDPS Y11, Y2, Y2
	VMULPS Y10, Y9, Y12
	VADDPS Y12, Y6, Y6
	VMOVUPS 96(CX), Y10
	VMULPS Y10, Y8, Y11
	VADDPS Y11, Y3, Y3
	VMULPS Y10, Y9, Y12
	VADDPS Y12, Y7, Y7
	ADDQ R10, AX
	ADDQ R10, BX
	ADDQ R12, CX
	DECQ DX
	JNZ pair32k

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, (SI)
	VMOVUPS Y5, 32(SI)
	VMOVUPS Y6, 64(SI)
	VMOVUPS Y7, 96(SI)
	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $128, R11
	SUBQ $32, R14
	JMP pair32

pair8:
	CMPQ R14, $8
	JLT pairdone
	VMOVUPS (DI), Y0
	VMOVUPS (SI), Y4
	MOVQ R8, AX
	MOVQ R9, BX
	MOVQ R11, CX
	MOVQ R13, DX

pair8k:
	VBROADCASTSS (AX), Y8
	VBROADCASTSS (BX), Y9
	VMOVUPS (CX), Y10
	VMULPS Y10, Y8, Y11
	VADDPS Y11, Y0, Y0
	VMULPS Y10, Y9, Y12
	VADDPS Y12, Y4, Y4
	ADDQ R10, AX
	ADDQ R10, BX
	ADDQ R12, CX
	DECQ DX
	JNZ pair8k

	VMOVUPS Y0, (DI)
	VMOVUPS Y4, (SI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R11
	SUBQ $8, R14
	JMP pair8

pairdone:
	VZEROUPPER
	RET

// func poolAVX2(o *float32, os int, x *float32, xs int, rows *int32, groups, fanout int, inv float32, n int)
//
// For each group g in [0, groups), j in [0, n), n a multiple of 8, and the
// group's positions p = g·fanout+r, r ascending in [0, fanout):
//
//	o[g·os+j] += inv·x[row(p)·xs+j]
//
// where row(p) is rows[p], or p itself when rows is nil. Blocks of 32
// columns keep 4 YMM of the output row in registers for the whole group;
// the last columns go 8 at a time. fanout must be positive.
TEXT ·poolAVX2(SB), NOSPLIT, $0-72
	MOVQ o+0(FP), DI
	MOVQ os+8(FP), R8
	SHLQ $2, R8
	MOVQ x+16(FP), SI
	MOVQ xs+24(FP), R9
	SHLQ $2, R9
	MOVQ rows+32(FP), R10
	MOVQ groups+40(FP), R11
	MOVQ fanout+48(FP), R12
	VBROADCASTSS inv+56(FP), Y15
	MOVQ n+64(FP), R13
	SHLQ $2, R13

	// R14 is the group's first position: a pointer into rows, or into x
	// when rows is nil. R15 is how far it moves from group to group.
	TESTQ R10, R10
	JZ poolseq
	MOVQ R10, R14
	LEAQ (R12*4), R15
	JMP poolgroup

poolseq:
	MOVQ SI, R14
	MOVQ R12, R15
	IMULQ R9, R15

poolgroup:
	TESTQ R11, R11
	JZ pooldone
	XORQ BX, BX

pool32:
	LEAQ 128(BX), AX
	CMPQ AX, R13
	JGT pool8
	VMOVUPS (DI)(BX*1), Y0
	VMOVUPS 32(DI)(BX*1), Y1
	VMOVUPS 64(DI)(BX*1), Y2
	VMOVUPS 96(DI)(BX*1), Y3
	MOVQ R14, AX
	MOVQ R12, DX

pool32r:
	TESTQ R10, R10
	JZ pool32seq
	MOVLQSX (AX), CX
	IMULQ R9, CX
	ADDQ SI, CX
	ADDQ $4, AX
	JMP pool32add

pool32seq:
	MOVQ AX, CX
	ADDQ R9, AX

pool32add:
	VMULPS (CX)(BX*1), Y15, Y4
	VADDPS Y4, Y0, Y0
	VMULPS 32(CX)(BX*1), Y15, Y5
	VADDPS Y5, Y1, Y1
	VMULPS 64(CX)(BX*1), Y15, Y6
	VADDPS Y6, Y2, Y2
	VMULPS 96(CX)(BX*1), Y15, Y7
	VADDPS Y7, Y3, Y3
	DECQ DX
	JNZ pool32r

	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	VMOVUPS Y2, 64(DI)(BX*1)
	VMOVUPS Y3, 96(DI)(BX*1)
	ADDQ $128, BX
	JMP pool32

pool8:
	LEAQ 32(BX), AX
	CMPQ AX, R13
	JGT poolnext
	VMOVUPS (DI)(BX*1), Y0
	MOVQ R14, AX
	MOVQ R12, DX

pool8r:
	TESTQ R10, R10
	JZ pool8seq
	MOVLQSX (AX), CX
	IMULQ R9, CX
	ADDQ SI, CX
	ADDQ $4, AX
	JMP pool8add

pool8seq:
	MOVQ AX, CX
	ADDQ R9, AX

pool8add:
	VMULPS (CX)(BX*1), Y15, Y4
	VADDPS Y4, Y0, Y0
	DECQ DX
	JNZ pool8r

	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	JMP pool8

poolnext:
	ADDQ R8, DI
	ADDQ R15, R14
	DECQ R11
	JMP poolgroup

pooldone:
	VZEROUPPER
	RET

// func reluAVX2(x *float32, n int)
//
// x[j] = max(x[j], +0) for j in [0, n), n a multiple of 8: VMAXPS returns
// its second source when the first is not greater, so −0 and NaN become
// +0, as in ReluInPlace.
TEXT ·reluAVX2(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	VXORPS Y1, Y1, Y1

relu8:
	CMPQ CX, $8
	JLT reludone
	VMOVUPS (DI), Y0
	VMAXPS Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	SUBQ $8, CX
	JMP relu8

reludone:
	VZEROUPPER
	RET

// func reluBackAVX2(d, out *float32, n int)
//
// d[j] *= 1 where out[j] > 0 and d[j] *= 0 elsewhere, for j in [0, n), n a
// multiple of 8: the 0/1 mask multiply of ReLU's backward.
TEXT ·reluBackAVX2(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	MOVQ out+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPS Y1, Y1, Y1
	MOVL $0x3f800000, AX
	MOVL AX, X2
	VBROADCASTSS X2, Y2

reluback8:
	CMPQ CX, $8
	JLT relubackdone
	VMOVUPS (SI), Y0
	VCMPPS $0x1e, Y1, Y0, Y0
	VANDPS Y2, Y0, Y0
	VMULPS (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX
	JMP reluback8

relubackdone:
	VZEROUPPER
	RET
