//go:build amd64

#include "textflag.h"

// func sqDistAVX2(a, b *float32, n int) float32
//
// Lane j of Y0 sums (a[i]-b[i])² over i ≡ j (mod 8) in ascending i,
// subtracting with VSUBPS, squaring with VMULPS and adding with VADDPS,
// never with a fused multiply-add, so each lane holds sqDistGo's bits. Four
// blocks of 8 load and square at once, then add into Y0 in ascending order;
// the last blocks go 8 at a time. The lanes are reduced as
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
TEXT ·sqDistAVX2(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPS Y0, Y0, Y0

sq32:
	CMPQ CX, $32
	JLT sq8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VSUBPS (DI), Y1, Y1
	VSUBPS 32(DI), Y2, Y2
	VSUBPS 64(DI), Y3, Y3
	VSUBPS 96(DI), Y4, Y4
	VMULPS Y1, Y1, Y1
	VMULPS Y2, Y2, Y2
	VMULPS Y3, Y3, Y3
	VMULPS Y4, Y4, Y4
	VADDPS Y1, Y0, Y0
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y0, Y0
	VADDPS Y4, Y0, Y0
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	JMP sq32

sq8:
	TESTQ CX, CX
	JZ reduce
	VMOVUPS (SI), Y1
	VSUBPS (DI), Y1, Y1
	VMULPS Y1, Y1, Y1
	VADDPS Y1, Y0, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP sq8

reduce:
	// X0 = [l0+l4, l1+l5, l2+l6, l3+l7]
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	// X0[0] = (l0+l4)+(l2+l6), X0[1] = (l1+l5)+(l3+l7)
	VMOVHLPS X0, X0, X1
	VADDPS X1, X0, X0
	VMOVSHDUP X0, X1
	VADDSS X1, X0, X0
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET
