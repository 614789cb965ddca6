// Package cpuid probes, once at start-up, the x86 vector extensions the
// kernel packages pick their assembly bodies by. It holds the one copy
// of the CPUID/XGETBV sequence: `internal/tensor`'s micro-kernels and
// `internal/quant`'s tap kernel both read it. Off amd64 every feature
// reads false and callers keep their portable loops.
package cpuid

// HasAVX reports CPU and OS support for AVX: CPUID leaf 1 OSXSAVE and
// AVX, and XCR0 enabling xmm+ymm state.
var HasAVX = hasAVX()

// HasAVX2 reports HasAVX plus CPUID leaf 7 AVX2.
var HasAVX2 = hasAVX2()
