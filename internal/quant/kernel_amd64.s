#include "go_asm.h"
#include "textflag.h"

// func quantizeAVX2(tab *laneTable, out, xs *float64, n int) (nan bool)
//
// Four elements per iteration, each lane the scalar loop's sequence with
// the same IEEE operations: AND for the magnitude; the sign bit picks
// the side's limit, Δ and MaxMag (VBLENDVPD), and VPCMPGTQ of the
// magnitude bits against the limit picks the lane; VDIVPD, then the
// 2^52 VADDPD/VSUBPD round to even; VMINPD against MaxMag with the
// rounded quotient as the operand it returns on NaN, as Go's min does;
// VMULPD back, OR in the sign, and blend in the canonical zero where the
// product's bits are zero. An unordered self-compare, ORed across the
// loop, reports whether a NaN went by.
//
// Registers held across the loop: Y15 magnitude mask, Y14 2^52, Y13
// canonical zero, Y12/Y11 the positive/negative limit, Y10 the NaN
// accumulator, Y9/Y8 the positive/negative low-lane Δ, Y7/Y6 their
// MaxMag. The high-lane rows are blend memory operands.
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-33
	MOVQ tab+0(FP), AX
	MOVQ out+8(FP), DI
	MOVQ xs+16(FP), SI
	MOVQ n+24(FP), CX

	VMOVDQU const_tabAbs(AX), Y15
	VMOVDQU const_tabTwo52(AX), Y14
	VMOVDQU const_tabZero(AX), Y13
	VMOVDQU const_tabLimitPos(AX), Y12
	VMOVDQU const_tabLimitNeg(AX), Y11
	VMOVDQU const_tabDelta+0(AX), Y9    // lanes[0]: positive, low
	VMOVDQU const_tabDelta+64(AX), Y8   // lanes[2]: negative, low
	VMOVDQU const_tabMaxMag+0(AX), Y7
	VMOVDQU const_tabMaxMag+64(AX), Y6
	VXORPD  Y10, Y10, Y10

loop:
	VMOVUPD   (SI), Y0
	VCMPPD    $3, Y0, Y0, Y5                          // unordered: x is a NaN
	VORPD     Y5, Y10, Y10
	VANDPD    Y15, Y0, Y1                             // mag
	VBLENDVPD Y0, Y11, Y12, Y2                        // the sign's limit
	VPCMPGTQ  Y2, Y1, Y2                              // high = mag > limit
	VBLENDVPD Y0, Y8, Y9, Y3                          // low lane's Δ
	VMOVDQU   const_tabDelta+32(AX), Y5
	VBLENDVPD Y0, const_tabDelta+96(AX), Y5, Y5       // high lane's Δ
	VBLENDVPD Y2, Y5, Y3, Y3                          // Δ
	VBLENDVPD Y0, Y6, Y7, Y4                          // low lane's MaxMag
	VMOVDQU   const_tabMaxMag+32(AX), Y5
	VBLENDVPD Y0, const_tabMaxMag+96(AX), Y5, Y5      // high lane's MaxMag
	VBLENDVPD Y2, Y5, Y4, Y4                          // MaxMag
	VDIVPD    Y3, Y1, Y5                              // mag / Δ
	VADDPD    Y14, Y5, Y5
	VSUBPD    Y14, Y5, Y5                             // rounded to even
	VMINPD    Y5, Y4, Y5                              // min(MaxMag, q), q if NaN
	VMULPD    Y3, Y5, Y5                              // v = r·Δ
	VXORPD    Y1, Y1, Y1
	VPCMPEQQ  Y1, Y5, Y1                              // v's bits are zero
	VANDNPD   Y0, Y15, Y2                             // x's sign bit
	VORPD     Y2, Y5, Y5
	VBLENDVPD Y1, Y13, Y5, Y5                         // canonical zero
	VMOVUPD   Y5, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $4, CX
	JNE       loop

	VMOVMSKPD Y10, AX
	TESTL     AX, AX
	SETNE     nan+32(FP)
	VZEROUPPER
	RET
