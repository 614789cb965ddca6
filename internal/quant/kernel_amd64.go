package quant

import (
	"math"

	"quq/internal/cpuid"
)

// laneTable is the vector body's view of a Kernel: thirteen rows of one
// 64-bit value repeated across the four lanes of a ymm register, so each
// row is a register load or a blend's memory operand. Row order is the
// tab* offsets below.
type laneTable [13][4]uint64

// Row offsets, in bytes, into a laneTable; kernel_amd64.s reads them
// through go_asm.h.
const (
	tabAbs      = 0 * 32 // ^signBit, the magnitude mask
	tabTwo52    = 1 * 32 // two52's bits
	tabZero     = 2 * 32 // Kernel.zero
	tabLimitPos = 3 * 32 // Kernel.limit[0]
	tabLimitNeg = 4 * 32 // Kernel.limit[1]
	tabDelta    = 5 * 32 // four rows: lanes[0..3].delta
	tabMaxMag   = 9 * 32 // four rows: lanes[0..3].maxMag
)

// quantizeAVX2 runs Quantize's per-element sequence on xs[0:n] into
// out[0:n], four elements per iteration, and reports whether any of them
// was a NaN. n must be a positive multiple of 4. Implemented in
// kernel_amd64.s.
//
//go:noescape
func quantizeAVX2(tab *laneTable, out, xs *float64, n int) (nan bool)

// quantizeVector is Quantize's amd64 vector body: it quantizes the
// longest multiple-of-4 prefix of xs into out on AVX2 CPUs and returns
// that prefix's length and whether it held a NaN; the caller's portable
// loop finishes the tail. The table is built here, on the stack, per
// call — the assembly is called directly so it does not escape.
//
//quq:hotpath every activation site of every forward; the lane table lives on the stack
func (k *Kernel) quantizeVector(out, xs []float64) (n int, nan bool) {
	n = len(xs) &^ 3
	if n == 0 || !cpuid.HasAVX2 || portableOnly {
		return 0, false
	}
	rows := [13]uint64{
		^signBit, math.Float64bits(two52), k.zero, k.limit[0], k.limit[1],
		math.Float64bits(k.lanes[0].delta), math.Float64bits(k.lanes[1].delta),
		math.Float64bits(k.lanes[2].delta), math.Float64bits(k.lanes[3].delta),
		math.Float64bits(k.lanes[0].maxMag), math.Float64bits(k.lanes[1].maxMag),
		math.Float64bits(k.lanes[2].maxMag), math.Float64bits(k.lanes[3].maxMag),
	}
	var tab laneTable
	for r, v := range rows {
		tab[r] = [4]uint64{v, v, v, v}
	}
	return n, quantizeAVX2(&tab, &out[0], &xs[0], n)
}
