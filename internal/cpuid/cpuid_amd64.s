#include "textflag.h"

// func hasAVX() bool
//
// CPUID leaf 1: ECX bit 27 (OSXSAVE) and bit 28 (AVX); then XGETBV to
// confirm the OS saves xmm+ymm state (XCR0 bits 1 and 2).
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func hasAVX2() bool
//
// hasAVX's checks, then CPUID leaf 7 subleaf 0: EBX bit 5 (AVX2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx2
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	CMPL BX, $0x20
	JNE  noavx2
	MOVB $1, ret+0(FP)
	RET

noavx2:
	MOVB $0, ret+0(FP)
	RET
