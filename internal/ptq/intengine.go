package ptq

import (
	"fmt"
	"math"
	"sync/atomic"

	"quq/internal/accel"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// IntEngine is the fully-integer weight path: a vit.GEMMEngine that runs
// every weight GEMM of a QUQ-quantized model on resident pre-shifted
// int64 operands through the tensor kernel layer, never touching the
// float64 weight tensors. It is built once per model (NewIntEngine) from
// the fake-quantized weights and reused across forward passes; per-call
// state is arena scratch only, so the engine is safe for concurrent use.
//
// Numerics: the integer dot product is exact — the engine computes the
// mathematically exact sum Σ mx·mw of the operands' integer codes, then
// scales once by Δx·Δw in the float epilogue (plus the float bias). The
// float path accumulates the same products in float64 with per-step
// rounding, so logits agree to ~1 ulp of the accumulation, not bit-for-
// bit; downstream consumers that need cross-backend byte identity
// compare on a coarse requantized grid (see the serve bench and chaos
// checks).
type IntEngine struct {
	ops map[vit.Site]*intOp
	// declines counts the calls Linear handed back to the float path.
	// The cell is the model's, so the count outlives an engine that
	// SetIntPath replaces.
	declines *atomic.Int64
}

// Declines reports how many weight GEMMs the model's integer path has
// declined — an unknown site, a shape that does not match the resident
// operand, an input element off the activation grid — and left to the
// float GEMM. A forward whose GEMMs all ran on integers leaves it alone;
// "the integer path served this" is true only while it stays zero.
func (e *IntEngine) Declines() int64 { return e.declines.Load() }

// intOp is one weight site's resident state.
type intOp struct {
	// prep is the weight operand, decoded once to pre-shifted int64.
	prep *accel.PreparedOperand
	// xDelta is the GEMM input's base Δ; xInv its reciprocal for the
	// integer-recovery multiply; unit = xDelta·prep.Delta converts one
	// accumulator unit to a real value.
	xDelta, xInv, unit float64
}

// NewIntEngine prepares the integer weight path for a quantized model.
// The build is all-or-nothing: every weight site must have recorded
// quantizer parameters (WeightParams, i.e. the model was quantized with
// a WeightParamsRecorder method such as QUQ), a QUQ activation quantizer
// on its GEMM input, weights exactly on their quantizer's integer grid,
// and a worst-case accumulator within int64 bounds. Any gap fails the
// whole build rather than leaving a model that silently mixes backends.
func NewIntEngine(q *QuantizedModel) (*IntEngine, error) {
	if q.WeightParams == nil {
		return nil, fmt.Errorf("ptq: model has no recorded weight params (method %q); int path needs a WeightParamsRecorder method", q.Method)
	}
	e := &IntEngine{ops: make(map[vit.Site]*intOp), declines: &q.intDeclines}
	var err error
	q.Model.ForEachWeight(func(site vit.Site, l *vit.Linear) {
		if err != nil {
			return
		}
		wp := q.WeightParams[site.Key()]
		if wp == nil {
			err = fmt.Errorf("ptq: weight site %s has no recorded params", site.Key())
			return
		}
		inSite, ok := weightInputSite(site)
		if !ok {
			err = fmt.Errorf("ptq: weight site %s has no input-site mapping", site.Key())
			return
		}
		tq, ok := q.Acts[inSite.Key()].(QUQTensorQuantizer)
		if !ok {
			err = fmt.Errorf("ptq: GEMM input %s of weight %s has no QUQ activation quantizer", inSite.Key(), site.Key())
			return
		}
		prep, perr := accel.PrepareQuantized(wp, l.W.Data(), l.W.Dim(0), l.W.Dim(1))
		if perr != nil {
			err = fmt.Errorf("ptq: weight site %s: %w", site.Key(), perr)
			return
		}
		// Worst case |Σ mx·mw| ≤ k·max|mx|·max|mw| must stay clear of
		// int64 wrap; 2^62 leaves a 2× safety margin.
		xMax := tq.Params.MaxCodeMag()
		if float64(l.In())*float64(xMax)*float64(prep.MaxAbs) > math.Ldexp(1, 62) {
			err = fmt.Errorf("ptq: weight site %s: worst-case accumulator k=%d·%d·%d exceeds 2^62", site.Key(), l.In(), xMax, prep.MaxAbs)
			return
		}
		xd := tq.Params.BaseDelta()
		e.ops[site] = &intOp{prep: prep, xDelta: xd, xInv: 1 / xd, unit: xd * prep.Delta}
	})
	if err != nil {
		return nil, err
	}
	if len(e.ops) == 0 {
		return nil, fmt.Errorf("ptq: model has no weight sites")
	}
	return e, nil
}

// Linear implements vit.GEMMEngine. The input tensor is expected to be
// fake-quantized by the site's activation quantizer (the quantizing tap
// runs before the GEMM), so each element is a grid point m·Δx whose
// integer code the engine recovers exactly; any element off the grid —
// e.g. an instrumentation tap replaced the tensor — falls back to the
// float path for the whole call, never computing a wrong result, and is
// counted (Declines). In a stacked forward the whole call is every image
// of the chunk, so a GEMM the engine serves for one image and declines
// for another would make the first one's logits depend on its
// batch-mates; no site does that — a quantizing tap puts every row on
// the grid, and Swin's pooled head input is off it for every image, so
// Swin's head is the one GEMM this engine always declines: it runs as a
// float GEMM (see vit's meanPool). The weight side uses the resident integer operand; the only float64 work
// is the epilogue scale-and-bias at the decode boundary.
//
//quq:hotpath per-inference integer weight GEMM; all scratch is arena-pooled, the destination comes from the caller
func (e *IntEngine) Linear(site vit.Site, l *vit.Linear, dst, x *tensor.Tensor) bool {
	op, ok := e.ops[site]
	if !ok {
		e.declines.Add(1)
		return false
	}
	rows, k := x.Dim(0), x.Dim(1)
	n := op.prep.Cols
	if k != op.prep.Rows || dst.Dim(0) != rows || dst.Dim(1) != n {
		e.declines.Add(1)
		return false
	}
	ar := tensor.GetArena()
	defer ar.Release()
	vx := ar.Int64(rows * k)
	for i, v := range x.Data() {
		m := int64(math.RoundToEven(v * op.xInv))
		//quq:float-ok integer-recovery verification at the encode boundary: exact comparison against the activation grid, not datapath arithmetic
		if float64(m)*op.xDelta != v {
			ar.PutInt64(vx)
			e.declines.Add(1)
			return false
		}
		vx[i] = m
	}
	acc := ar.Int64(rows * n)
	tensor.IntMatMulInto(acc, vx, op.prep.V, rows, k, n)
	ar.PutInt64(vx)
	dd := dst.Data()
	for r := 0; r < rows; r++ {
		arow := acc[r*n : (r+1)*n]
		drow := dd[r*n : (r+1)*n]
		for j, a := range arow {
			//quq:float-ok decode boundary: one scale of the exact integer accumulator plus the float bias
			drow[j] = float64(a)*op.unit + l.B[j]
		}
	}
	ar.PutInt64(acc)
	return true
}

// assert the interface is satisfied.
var _ vit.GEMMEngine = (*IntEngine)(nil)
