//go:build amd64 && !purego

#include "textflag.h"

// Register plan shared by both tiles: DI/AX/BX/R13 the four C rows,
// SI/R10/R11/R12 the four packed A rows indexed by R8 = l, DX the
// current B row advanced by R9 = ldb bytes, CX = kc.
#define TILE_ARGS \
	MOVQ c+0(FP), DI; \
	MOVQ ldc+8(FP), R8; \
	MOVQ a+16(FP), SI; \
	MOVQ kc+24(FP), CX; \
	MOVQ b+32(FP), DX; \
	MOVQ ldb+40(FP), R9; \
	SHLQ $2, R8; \
	SHLQ $2, R9; \
	LEAQ (DI)(R8*1), AX; \
	LEAQ (AX)(R8*1), BX; \
	LEAQ (BX)(R8*1), R13; \
	LEAQ (SI)(CX*4), R10; \
	LEAQ (R10)(CX*4), R11; \
	LEAQ (R11)(CX*4), R12; \
	XORQ R8, R8

// ROW16 adds A row element (base)(R8*4) times the B row in Y8:Y9 to the
// accumulator pair lo:hi.
#define ROW16(base, lo, hi) \
	VBROADCASTSS (base)(R8*4), Y10; \
	VMULPS Y8, Y10, Y11; \
	VMULPS Y9, Y10, Y12; \
	VADDPS Y11, lo, lo; \
	VADDPS Y12, hi, hi

// func microTile4x16(c *float32, ldc int, a *float32, kc int, b *float32, ldb int, first bool)
TEXT ·microTile4x16(SB), NOSPLIT, $0-49
	TILE_ARGS
	CMPB first+48(FP), $0
	JNE  zero16
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (AX), Y2
	VMOVUPS 32(AX), Y3
	VMOVUPS (BX), Y4
	VMOVUPS 32(BX), Y5
	VMOVUPS (R13), Y6
	VMOVUPS 32(R13), Y7
	JMP  loop16
zero16:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
loop16:
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	ROW16(SI, Y0, Y1)
	ROW16(R10, Y2, Y3)
	ROW16(R11, Y4, Y5)
	ROW16(R12, Y6, Y7)
	ADDQ R9, DX
	INCQ R8
	CMPQ R8, CX
	JLT  loop16
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (AX)
	VMOVUPS Y3, 32(AX)
	VMOVUPS Y4, (BX)
	VMOVUPS Y5, 32(BX)
	VMOVUPS Y6, (R13)
	VMOVUPS Y7, 32(R13)
	VZEROUPPER
	RET

#define ROW8(base, acc) \
	VBROADCASTSS (base)(R8*4), Y10; \
	VMULPS Y8, Y10, Y11; \
	VADDPS Y11, acc, acc

// func microTile4x8(c *float32, ldc int, a *float32, kc int, b *float32, ldb int, first bool)
TEXT ·microTile4x8(SB), NOSPLIT, $0-49
	TILE_ARGS
	CMPB first+48(FP), $0
	JNE  zero8
	VMOVUPS (DI), Y0
	VMOVUPS (AX), Y2
	VMOVUPS (BX), Y4
	VMOVUPS (R13), Y6
	JMP  loop8
zero8:
	VXORPS Y0, Y0, Y0
	VXORPS Y2, Y2, Y2
	VXORPS Y4, Y4, Y4
	VXORPS Y6, Y6, Y6
loop8:
	VMOVUPS (DX), Y8
	ROW8(SI, Y0)
	ROW8(R10, Y2)
	ROW8(R11, Y4)
	ROW8(R12, Y6)
	ADDQ R9, DX
	INCQ R8
	CMPQ R8, CX
	JLT  loop8
	VMOVUPS Y0, (DI)
	VMOVUPS Y2, (AX)
	VMOVUPS Y4, (BX)
	VMOVUPS Y6, (R13)
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX // the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX // AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET
