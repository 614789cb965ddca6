//go:build amd64

package tensor

import "quq/internal/cpuid"

// Vector paths of the 4×4 micro-kernel. Both assembly kernels keep one
// ymm accumulator per A row (four 64-bit column lanes) and advance all
// four rows per k step in ascending-k order.
//
// The AVX float64 kernel issues one VMULPD + one VADDPD per row per k
// step — per lane exactly the two roundings of the portable kernel, and
// never an FMA — so its results are bit-identical to micro4x4Go.
//
// The AVX2 int64 kernel issues one signed 32×32→64 VPMULDQ per row per k
// step, which is the exact product only for int32-range operands;
// pickIntMicro guarantees that. Sums wrap modulo 2^64 like the portable
// kernel's, so it too is bit-identical.
//
// TestPortableMicroKernel in gemm_test.go runs the portable kernel
// against both directly; the equivalence and fuzz tests exercise
// whichever kernel init selected against the scalar reference oracles.

// gemmKernel4x4 computes c[r*4+j] = Σ_kk a_r[kk]·bp[kk*4+j] for r,j in
// 0..3. k must be ≥ 1 and the pointers must address k (rows) and 4k
// (panel) readable float64s. Implemented in gemm_micro_amd64.s.
//
//go:noescape
func gemmKernel4x4(c *[16]float64, a0, a1, a2, a3, bp *float64, k int)

// intGemmKernel4x4Narrow is gemmKernel4x4 for int64 operands that fit
// in int32 (sums modulo 2^64). Callers must guarantee narrowness.
// Implemented in gemm_micro_amd64.s.
//
//go:noescape
func intGemmKernel4x4Narrow(c *[16]int64, a0, a1, a2, a3, bp *int64, k int)

func micro4x4AVX(c *[16]float64, a0, a1, a2, a3, bp []float64, k int) {
	if k == 0 {
		*c = [16]float64{}
		return
	}
	gemmKernel4x4(c, &a0[0], &a1[0], &a2[0], &a3[0], &bp[0], k)
}

func intMicro4x4NarrowAVX2(c *[16]int64, a0, a1, a2, a3, bp []int64, k int) {
	if k == 0 {
		*c = [16]int64{}
		return
	}
	intGemmKernel4x4Narrow(c, &a0[0], &a1[0], &a2[0], &a3[0], &bp[0], k)
}

func init() {
	if cpuid.HasAVX {
		micro4x4 = micro4x4AVX
	}
	if cpuid.HasAVX2 {
		intMicro4x4Narrow = intMicro4x4NarrowAVX2
	}
}
