// Package baselines reimplements the quantization schemes the QUQ paper
// compares against, each plugged into the shared PTQ pipeline so that the
// only difference between table rows is the quantization mechanism:
//
//   - BaseQ: per-tensor symmetric uniform quantization with the same
//     clipping grid search as QUQ (the paper's ablation control);
//   - PTQ4ViT: twin uniform quantization for post-Softmax and post-GELU
//     activations, uniform elsewhere (Yuan et al., ECCV 2022);
//   - APQ-ViT: asymmetric (affine) uniform quantization with error-aware
//     clipping search — the block-wise Hessian calibration of Ding et al.
//     realized as a tensor-level proxy (DESIGN.md);
//   - FQ-ViT: row-wise weight quantization, log2 post-Softmax
//     quantization and power-of-two-factor (PTF) per-channel scaling for
//     LayerNorm inputs (Lin et al.);
//   - BiScaled-FxP: dual scale factors with an outlier index table
//     (Jain et al., DAC 2019).
package baselines

import (
	"strings"

	"quq/internal/ptq"
	"quq/internal/quant"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// BaseQ is per-tensor symmetric uniform quantization with clipping
// search: the paper's "substitute QUQ with uniform quantization while
// maintaining the rest of the PTQ process unchanged".
type BaseQ struct{}

// Name implements ptq.Method.
func (BaseQ) Name() string { return "BaseQ" }

// CalibrateActivation implements ptq.Method.
func (BaseQ) CalibrateActivation(stats *ptq.SiteStats, bits int) ptq.TensorQuantizer {
	return searchedUniform(stats.Samples, bits)
}

// QuantizeWeight implements ptq.Method.
func (BaseQ) QuantizeWeight(_ vit.Site, w *tensor.Tensor, bits int) {
	searchedUniform(w.Data(), bits).Apply(w)
}

// searchedUniform is per-tensor symmetric uniform quantization with
// clipping search, built as what it is: QUQ's uniform special case
// (quant.ParamsForUniform), so its sites run on the tap kernel and
// serialize as QUQ records.
func searchedUniform(xs []float64, bits int) ptq.QUQTensorQuantizer {
	return ptq.QUQTensorQuantizer{Params: quant.ParamsForUniform(ptq.SearchUniformDelta(xs, bits, ptq.DefaultAlphaGrid), bits)}
}

// usableDelta maps a calibrated scale factor that is not > 0 to 1, the
// rule ptq.SearchUniformDelta and quant.UniformDelta follow: the range of
// subnormal data divided by a code count underflows to 0, and any
// positive Δ rounds such data to zero alike.
func usableDelta(d float64) float64 {
	if d > 0 {
		return d
	}
	return 1
}

// isPostSoftmax reports whether the site carries attention probabilities.
func isPostSoftmax(s vit.Site) bool { return strings.HasSuffix(s.Name, "softmax_out") }

// isPostGELU reports whether the site carries GELU outputs.
func isPostGELU(s vit.Site) bool { return strings.HasSuffix(s.Name, "gelu_out") }

// isResidualStream reports whether the site carries the residual stream
// (the LayerNorm inputs FQ-ViT's PTF targets).
func isResidualStream(s vit.Site) bool {
	switch {
	case strings.HasSuffix(s.Name, "resid1.out"),
		strings.HasSuffix(s.Name, "resid2.out"),
		strings.HasSuffix(s.Name, "embed.out"),
		strings.HasSuffix(s.Name, "proj_out"),
		strings.HasSuffix(s.Name, "fc2_out"),
		strings.HasSuffix(s.Name, "merge.out"):
		return true
	}
	return false
}
