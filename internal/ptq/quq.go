package ptq

import (
	"quq/internal/quant"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// QUQMethod is the paper's proposed scheme plugged into the PTQ pipeline:
// PRA per tensor, the uniform-special-case comparison, then grid-search
// refinement (the paper's layer-wise Hessian-guided search, realized as
// tensor-output-MSE search — see DESIGN.md).
type QUQMethod struct {
	PRA    quant.PRAOptions
	Refine quant.RefineOptions

	// record, when set via RecordWeightParams, receives the parameter set
	// used for each weight tensor as it is quantized.
	record func(site vit.Site, p *quant.Params)
}

// RecordWeightParams implements WeightParamsRecorder.
func (m *QUQMethod) RecordWeightParams(fn func(site vit.Site, p *quant.Params)) {
	m.record = fn
}

// NewQUQ returns the method with the paper's hyperparameters
// (λ_A=4, q=0.99, q_A=0.95).
func NewQUQ() *QUQMethod {
	return &QUQMethod{PRA: quant.DefaultPRAOptions(), Refine: quant.DefaultRefineOptions()}
}

// Name implements Method.
func (m *QUQMethod) Name() string { return "QUQ" }

// QUQTensorQuantizer wraps a calibrated quant.Params. It is exported so
// the exact parameter set (and hence the QUB registers) behind a
// quantized model's sites can be retrieved; SiteParams does, for the
// accelerator simulator.
type QUQTensorQuantizer struct {
	Params *quant.Params
}

// SiteParams returns the exact QUQ parameter set behind every site of
// the model under its site key: activation sites from Acts, weight sites
// from WeightParams. It is what internal/accel builds its runners from,
// so the simulator executes the served quantizers and calibrates
// nothing. A site whose quantizer is not a quant.Params is absent.
func (q *QuantizedModel) SiteParams() map[string]*quant.Params {
	out := make(map[string]*quant.Params, len(q.Acts)+len(q.WeightParams))
	for key, tq := range q.Acts {
		if t, ok := tq.(QUQTensorQuantizer); ok {
			out[key] = t.Params
		}
	}
	for key, p := range q.WeightParams {
		out[key] = p
	}
	return out
}

// Apply implements TensorQuantizer: it quantizes x in place and returns
// it. A caller that still needs the unquantized values clones first.
func (q QUQTensorQuantizer) Apply(x *tensor.Tensor) *tensor.Tensor {
	q.Params.QuantizeSlice(x.Data(), x.Data())
	return x
}

// CalibrateActivation implements Method.
func (m *QUQMethod) CalibrateActivation(stats *SiteStats, bits int) TensorQuantizer {
	p := quant.CalibrateRefined(stats.Samples, bits, m.PRA, m.Refine)
	return QUQTensorQuantizer{Params: p}
}

// QuantizeWeight implements Method: per-tensor QUQ on the weight matrix.
func (m *QUQMethod) QuantizeWeight(site vit.Site, w *tensor.Tensor, bits int) {
	p := quant.CalibrateRefined(w.Data(), bits, m.PRA, m.Refine)
	p.QuantizeSlice(w.Data(), w.Data())
	if m.record != nil {
		m.record(site, p)
	}
}

// QuantizeWeightAware implements InputAwareWeightQuantizer: the grid
// search is re-scored with a diagonal-Hessian proxy — the squared weight
// error of input row d is weighted by E[x_d²] of the layer's calibration
// inputs, so the search minimizes the expected GEMM *output* error
// rather than the raw weight error. This realizes the paper's layer-wise
// Hessian-guided optimization.
func (m *QUQMethod) QuantizeWeightAware(site vit.Site, w *tensor.Tensor, bits int, inputSq []float64) {
	if w.Rank() != 2 || len(inputSq) != w.Dim(0) {
		// No usable input statistics: fall back to the plain search.
		m.QuantizeWeight(site, w, bits)
		return
	}
	in, out := w.Dim(0), w.Dim(1)
	d := w.Data()
	// Every term is a positive weight times a sum of squares, so the
	// running total only grows: once it reaches bound the candidate has
	// lost (quant.RefineScored's early-return contract).
	score := func(p *quant.Params, bound float64) float64 {
		k := p.Kernel()
		var s float64
		for r := 0; r < in; r++ {
			wgt := inputSq[r]
			if wgt <= 0 {
				continue
			}
			s += wgt * k.SumSqErr(0, d[r*out:(r+1)*out])
			if s >= bound {
				break
			}
		}
		return s
	}
	p := quant.RefineScored(quant.Calibrate(d, bits, m.PRA), m.Refine, score)
	p.QuantizeSlice(d, d)
	if m.record != nil {
		m.record(site, p)
	}
}
