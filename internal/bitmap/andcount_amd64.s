#include "textflag.h"

// func andCountAVX512(a, b, g0 *uint64, n int) (t, c0 int)
TEXT ·andCountAVX512(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ g0+16(FP), DX
	MOVQ n+24(FP), CX
	VPXORQ Z0, Z0, Z0 // per-lane popcounts of a ∩ b
	VPXORQ Z1, Z1, Z1 // per-lane popcounts of a ∩ b ∩ g0

loop:
	VMOVDQU64 (SI), Z2
	VPANDQ    (DI), Z2, Z2
	VPOPCNTQ  Z2, Z3
	VPADDQ    Z3, Z0, Z0
	VPANDQ    (DX), Z2, Z2
	VPOPCNTQ  Z2, Z2
	VPADDQ    Z2, Z1, Z1
	ADDQ      $64, SI
	ADDQ      $64, DI
	ADDQ      $64, DX
	SUBQ      $8, CX
	JNZ       loop

	// Sum the eight lanes of each accumulator.
	VEXTRACTI64X4 $1, Z0, Y2
	VPADDQ        Y2, Y0, Y0
	VEXTRACTI128  $1, Y0, X2
	VPADDQ        X2, X0, X0
	VPSHUFD       $0x4e, X0, X2
	VPADDQ        X2, X0, X0
	VMOVQ         X0, AX
	VEXTRACTI64X4 $1, Z1, Y2
	VPADDQ        Y2, Y1, Y1
	VEXTRACTI128  $1, Y1, X2
	VPADDQ        X2, X1, X1
	VPSHUFD       $0x4e, X1, X2
	VPADDQ        X2, X1, X1
	VMOVQ         X1, BX
	VZEROUPPER
	MOVQ          AX, t+32(FP)
	MOVQ          BX, c0+40(FP)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
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
