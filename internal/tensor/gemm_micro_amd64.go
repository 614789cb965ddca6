//go:build amd64

package tensor

import (
	"unsafe"

	"quq/internal/cpuid"
)

// Vector paths of the 4×8 micro-kernel. Both assembly kernels keep two
// ymm accumulators per A row (columns 0–3 and 4–7, one 64-bit lane
// each): eight independent add chains, fed per k step by one 64-byte B
// panel row (two loads) and one broadcast per A row. With the two
// product temps that is 14 of the 16 ymm registers. The epilogue runs
// inside the kernel: the bias add (skipped for a nil bias) and the
// eight stores at stride ldd.
//
// The AVX float64 kernel issues one VMULPD + one VADDPD per half-row per
// k step — per lane exactly the two roundings of the portable kernel,
// and never an FMA — and adds the bias after the reduction, so its
// results are bit-identical to micro4x8Go.
//
// The AVX2 int64 kernel issues one signed 32×32→64 VPMULDQ per
// half-row per k step, which is the exact product only for int32-range
// operands; pickIntMicro guarantees that. Sums wrap modulo 2^64 like
// the portable kernel's, so it too is bit-identical.
//
// TestPortableMicroKernel in gemm_test.go runs the portable kernel
// against both directly; the equivalence and fuzz tests exercise
// whichever kernel init selected against the scalar reference oracles.

// gemmKernel4x8 writes d[r*ldd+j] = Σ_kk a_r[kk]·bp[kk*8+j] (+ bias[j]
// when bias is non-nil) for r in 0..3, j in 0..7. The pointers must
// address k (rows), 8k (panel) and 8 (bias) readable float64s and rows
// d[r*ldd : r*ldd+8] writable; with k = 0 the A and panel pointers are
// never read. Implemented in gemm_micro_amd64.s.
//
//go:noescape
func gemmKernel4x8(d *float64, ldd int, bias, a0, a1, a2, a3, bp *float64, k int)

// intGemmKernel4x8Narrow is gemmKernel4x8 for int64 operands that fit
// in int32 (sums modulo 2^64). Callers must guarantee narrowness.
// Implemented in gemm_micro_amd64.s.
//
//go:noescape
func intGemmKernel4x8Narrow(d *int64, ldd int, bias, a0, a1, a2, a3, bp *int64, k int)

// The wrappers bounds-check the one window the assembly writes; the
// operands go over as their data pointers, which stay unread at k = 0,
// and a nil bias goes over as a nil pointer.

func micro4x8AVX(d []float64, ldd int, bias, a0, a1, a2, a3, bp []float64, k int) {
	_ = d[3*ldd+nrTile-1]
	gemmKernel4x8(&d[0], ldd, unsafe.SliceData(bias), unsafe.SliceData(a0), unsafe.SliceData(a1),
		unsafe.SliceData(a2), unsafe.SliceData(a3), unsafe.SliceData(bp), k)
}

func intMicro4x8NarrowAVX2(d []int64, ldd int, bias, a0, a1, a2, a3, bp []int64, k int) {
	_ = d[3*ldd+nrTile-1]
	intGemmKernel4x8Narrow(&d[0], ldd, unsafe.SliceData(bias), unsafe.SliceData(a0), unsafe.SliceData(a1),
		unsafe.SliceData(a2), unsafe.SliceData(a3), unsafe.SliceData(bp), k)
}

func init() {
	if cpuid.HasAVX {
		micro4x8 = micro4x8AVX
	}
	if cpuid.HasAVX2 {
		intMicro4x8Narrow = intMicro4x8NarrowAVX2
	}
}
