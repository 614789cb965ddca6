package accel

import (
	"fmt"
	"math"

	"quq/internal/quant"
)

// PreparedOperand is a QUB operand decoded once into resident,
// pre-shifted int64 form: V[i] = D_i << n_sh,i (Eq. (6) with the Eq. (5)
// subrange shift folded in). Weight matrices are prepared at load time
// and reused across every GEMM, so the serve path's steady state never
// re-decodes — and never rehydrates to float64 — on the weight side.
// Pre-shifting is bit-exact: (D_a·D_b) << (n_a+n_b) equals
// (D_a<<n_a)·(D_b<<n_b) exactly, because shifts distribute over products
// mod 2^64.
type PreparedOperand struct {
	// Rows, Cols are the operand's row-major dimensions.
	Rows, Cols int
	// V holds the pre-shifted integer values, row-major.
	V []int64
	// Delta is the real value of one integer unit (the operand's base Δ).
	Delta float64
	// MaxAbs is the largest |V[i]|, for accumulator-width bounds: a GEMM
	// of depth k against activations of magnitude ≤ xMax accumulates at
	// most k·xMax·MaxAbs in absolute value.
	MaxAbs int64
}

// SliceCols extracts columns [lo, hi) into a new prepared operand with
// the same Delta (MaxAbs is recomputed over the slice). Used to split a
// fused weight matrix — e.g. QKV — into per-output-group operands at
// prepare time.
func (p *PreparedOperand) SliceCols(lo, hi int) *PreparedOperand {
	out := &PreparedOperand{Rows: p.Rows, Cols: hi - lo, V: make([]int64, p.Rows*(hi-lo)), Delta: p.Delta}
	for r := 0; r < p.Rows; r++ {
		row := p.V[r*p.Cols+lo : r*p.Cols+hi]
		copy(out.V[r*out.Cols:(r+1)*out.Cols], row)
		for _, v := range row {
			if a := abs64(v); a > out.MaxAbs {
				out.MaxAbs = a
			}
		}
	}
	return out
}

// PrepareQuantized recovers the pre-shifted integers of an already
// fake-quantized float tensor: every element of data must be a
// representable point m·Δ of params' code space (which is exactly what
// quant.Params.QuantizeSlice leaves behind), and the recovered integer is
// m. This is the serve path's weight-preparation route — the quantized
// model's weight tensors are already fake-quantized in place, so
// preparing from them (rather than re-encoding through qub) reproduces
// the float pipeline's values exactly, including signed zeros.
//
// Every element is verified to round-trip (float64(m)·Δ == x); an
// element that does not — data that was never quantized with params, or
// a quantizer whose slot deltas are not exact power-of-two multiples of
// the base — returns an error rather than a silently wrong operand.
//
//quq:float-ok one-time weight preparation at model load: recovering the integer grid from fake-quantized floats is the decode boundary, not per-inference datapath work
func PrepareQuantized(params *quant.Params, data []float64, rows, cols int) (*PreparedOperand, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("accel: prepared operand has %d elements, want %dx%d", len(data), rows, cols)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	delta := params.BaseDelta()
	inv := 1 / delta
	p := &PreparedOperand{Rows: rows, Cols: cols, V: make([]int64, len(data)), Delta: delta}
	for i, x := range data {
		m := int64(math.RoundToEven(x * inv))
		if float64(m)*delta != x {
			return nil, fmt.Errorf("accel: element %d (%v) is not on the Δ=%v integer grid; operand is not fake-quantized with these params", i, x, delta)
		}
		p.V[i] = m
		if a := abs64(m); a > p.MaxAbs {
			p.MaxAbs = a
		}
	}
	return p, nil
}
