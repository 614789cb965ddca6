#include "textflag.h"

// func gemmKernel4x4(c *[16]float64, a0, a1, a2, a3, bp *float64, k int)
//
// Four ymm accumulators, one per A row; each lane is one output column.
// Per k step: load the packed B panel row once, broadcast each row's A
// element, then VMULPD + VADDPD — the same two IEEE-754 roundings, in
// the same ascending-k order, as the scalar kernel. No FMA: fusing
// would change the rounding and break bit-identity with the reference
// loops.
TEXT ·gemmKernel4x4(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ bp+40(FP), SI
	MOVQ k+48(FP), CX

	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JE    done

loop:
	VMOVUPD      (SI), Y0
	VBROADCASTSD (R8), Y1
	VMULPD       Y0, Y1, Y1
	VADDPD       Y1, Y4, Y4
	VBROADCASTSD (R9), Y2
	VMULPD       Y0, Y2, Y2
	VADDPD       Y2, Y5, Y5
	VBROADCASTSD (R10), Y3
	VMULPD       Y0, Y3, Y3
	VADDPD       Y3, Y6, Y6
	VBROADCASTSD (R11), Y1
	VMULPD       Y0, Y1, Y1
	VADDPD       Y1, Y7, Y7
	ADDQ         $32, SI
	ADDQ         $8, R8
	ADDQ         $8, R9
	ADDQ         $8, R10
	ADDQ         $8, R11
	DECQ         CX
	JNE          loop

done:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	VZEROUPPER
	RET

// func intGemmKernel4x4Narrow(c *[16]int64, a0, a1, a2, a3, bp *int64, k int)
//
// Four ymm accumulators, one per A row; each lane is one output column —
// the independent int64 accumulator chains. Every input value must fit
// in int32 (the dispatcher scans both operands before selecting this
// kernel): each int64 lane's low dword then holds the exact
// two's-complement int32 of the value, so one VPMULDQ — signed 32×32→64
// on the even dwords — yields the exact int64 product. (AVX2 has no
// packed 64×64 multiply; VPMULLQ is AVX-512.) Pre-shifted QUB operands
// are ≤ 2^22 in magnitude, so the integer datapath always takes this
// kernel.
TEXT ·intGemmKernel4x4Narrow(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ bp+40(FP), SI
	MOVQ k+48(FP), CX

	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

	TESTQ CX, CX
	JE    ndone

nloop:
	VMOVDQU (SI), Y0          // B panel row: 4 int64 lanes, int32-valued

	VPBROADCASTQ (R8), Y2
	VPMULDQ      Y0, Y2, Y3   // exact a0*B per lane
	VPADDQ       Y3, Y4, Y4

	VPBROADCASTQ (R9), Y2
	VPMULDQ      Y0, Y2, Y3
	VPADDQ       Y3, Y5, Y5

	VPBROADCASTQ (R10), Y2
	VPMULDQ      Y0, Y2, Y3
	VPADDQ       Y3, Y6, Y6

	VPBROADCASTQ (R11), Y2
	VPMULDQ      Y0, Y2, Y3
	VPADDQ       Y3, Y7, Y7

	ADDQ $32, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNE  nloop

ndone:
	VMOVDQU Y4, (DI)
	VMOVDQU Y5, 32(DI)
	VMOVDQU Y6, 64(DI)
	VMOVDQU Y7, 96(DI)
	VZEROUPPER
	RET
