#include "textflag.h"

// func gemmKernel4x8(d *float64, ldd int, bias, a0, a1, a2, a3, bp *float64, k int)
//
// Eight ymm accumulators, two per A row (Y4/Y5 row 0 … Y10/Y11 row 3);
// each lane is one output column. Per k step: load the 64-byte packed B
// panel row as two vectors, broadcast each row's A element once, then
// VMULPD + VADDPD into each half — the same two IEEE-754 roundings, in
// the same ascending-k order, as the scalar kernel. No FMA: fusing
// would change the rounding and break bit-identity with the reference
// loops. Epilogue: the bias is added once, after the reduction, and
// only when its pointer is non-nil; then the eight stores at stride
// ldd*8 bytes.
TEXT ·gemmKernel4x8(SB), NOSPLIT, $0-72
	MOVQ d+0(FP), DI
	MOVQ ldd+8(FP), DX
	MOVQ bias+16(FP), BX
	MOVQ a0+24(FP), R8
	MOVQ a1+32(FP), R9
	MOVQ a2+40(FP), R10
	MOVQ a3+48(FP), R11
	MOVQ bp+56(FP), SI
	MOVQ k+64(FP), CX
	SHLQ $3, DX
	XORQ AX, AX

	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	TESTQ CX, CX
	JE    reduced

loop:
	VMOVUPD      (SI), Y0
	VMOVUPD      32(SI), Y1
	VBROADCASTSD (R8)(AX*8), Y2
	VMULPD       Y0, Y2, Y12
	VADDPD       Y12, Y4, Y4
	VMULPD       Y1, Y2, Y13
	VADDPD       Y13, Y5, Y5
	VBROADCASTSD (R9)(AX*8), Y3
	VMULPD       Y0, Y3, Y12
	VADDPD       Y12, Y6, Y6
	VMULPD       Y1, Y3, Y13
	VADDPD       Y13, Y7, Y7
	VBROADCASTSD (R10)(AX*8), Y2
	VMULPD       Y0, Y2, Y12
	VADDPD       Y12, Y8, Y8
	VMULPD       Y1, Y2, Y13
	VADDPD       Y13, Y9, Y9
	VBROADCASTSD (R11)(AX*8), Y3
	VMULPD       Y0, Y3, Y12
	VADDPD       Y12, Y10, Y10
	VMULPD       Y1, Y3, Y13
	VADDPD       Y13, Y11, Y11
	ADDQ         $64, SI
	INCQ         AX
	CMPQ         AX, CX
	JNE          loop

reduced:
	TESTQ BX, BX
	JE    store
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VADDPD  Y0, Y4, Y4
	VADDPD  Y1, Y5, Y5
	VADDPD  Y0, Y6, Y6
	VADDPD  Y1, Y7, Y7
	VADDPD  Y0, Y8, Y8
	VADDPD  Y1, Y9, Y9
	VADDPD  Y0, Y10, Y10
	VADDPD  Y1, Y11, Y11

store:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    DX, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	ADDQ    DX, DI
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	ADDQ    DX, DI
	VMOVUPD Y10, (DI)
	VMOVUPD Y11, 32(DI)
	VZEROUPPER
	RET

// func intGemmKernel4x8Narrow(d *int64, ldd int, bias, a0, a1, a2, a3, bp *int64, k int)
//
// The float kernel's shape over int64 lanes — the eight independent
// accumulator chains. Every input value must fit in int32 (the
// dispatcher scans both operands before selecting this kernel): each
// int64 lane's low dword then holds the exact two's-complement int32 of
// the value, so one VPMULDQ — signed 32×32→64 on the even dwords —
// yields the exact int64 product. (AVX2 has no packed 64×64 multiply;
// VPMULLQ is AVX-512.) Pre-shifted QUB operands are ≤ 2^22 in
// magnitude, so the integer datapath always takes this kernel.
TEXT ·intGemmKernel4x8Narrow(SB), NOSPLIT, $0-72
	MOVQ d+0(FP), DI
	MOVQ ldd+8(FP), DX
	MOVQ bias+16(FP), BX
	MOVQ a0+24(FP), R8
	MOVQ a1+32(FP), R9
	MOVQ a2+40(FP), R10
	MOVQ a3+48(FP), R11
	MOVQ bp+56(FP), SI
	MOVQ k+64(FP), CX
	SHLQ $3, DX
	XORQ AX, AX

	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11

	TESTQ CX, CX
	JE    nreduced

nloop:
	VMOVDQU      (SI), Y0       // B panel row, columns 0–3: int64 lanes, int32-valued
	VMOVDQU      32(SI), Y1     // columns 4–7
	VPBROADCASTQ (R8)(AX*8), Y2
	VPMULDQ      Y0, Y2, Y12    // exact a0*B per lane
	VPADDQ       Y12, Y4, Y4
	VPMULDQ      Y1, Y2, Y13
	VPADDQ       Y13, Y5, Y5
	VPBROADCASTQ (R9)(AX*8), Y3
	VPMULDQ      Y0, Y3, Y12
	VPADDQ       Y12, Y6, Y6
	VPMULDQ      Y1, Y3, Y13
	VPADDQ       Y13, Y7, Y7
	VPBROADCASTQ (R10)(AX*8), Y2
	VPMULDQ      Y0, Y2, Y12
	VPADDQ       Y12, Y8, Y8
	VPMULDQ      Y1, Y2, Y13
	VPADDQ       Y13, Y9, Y9
	VPBROADCASTQ (R11)(AX*8), Y3
	VPMULDQ      Y0, Y3, Y12
	VPADDQ       Y12, Y10, Y10
	VPMULDQ      Y1, Y3, Y13
	VPADDQ       Y13, Y11, Y11
	ADDQ         $64, SI
	INCQ         AX
	CMPQ         AX, CX
	JNE          nloop

nreduced:
	TESTQ BX, BX
	JE    nstore
	VMOVDQU (BX), Y0
	VMOVDQU 32(BX), Y1
	VPADDQ  Y0, Y4, Y4
	VPADDQ  Y1, Y5, Y5
	VPADDQ  Y0, Y6, Y6
	VPADDQ  Y1, Y7, Y7
	VPADDQ  Y0, Y8, Y8
	VPADDQ  Y1, Y9, Y9
	VPADDQ  Y0, Y10, Y10
	VPADDQ  Y1, Y11, Y11

nstore:
	VMOVDQU Y4, (DI)
	VMOVDQU Y5, 32(DI)
	ADDQ    DX, DI
	VMOVDQU Y6, (DI)
	VMOVDQU Y7, 32(DI)
	ADDQ    DX, DI
	VMOVDQU Y8, (DI)
	VMOVDQU Y9, 32(DI)
	ADDQ    DX, DI
	VMOVDQU Y10, (DI)
	VMOVDQU Y11, 32(DI)
	VZEROUPPER
	RET
