package baselines

import (
	"math"

	"quq/internal/ptq"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// APQViT is the tensor-level proxy for APQ-ViT (Ding et al., MM 2022):
// asymmetric (affine) uniform quantization with an error-aware clipping
// search over both range endpoints. The original's block-wise Hessian
// calibration is replaced by per-tensor MSE scoring (DESIGN.md documents
// the substitution); the affine zero-point is the mechanism that lets it
// track asymmetric ViT activations better than symmetric schemes.
type APQViT struct{}

// Name implements ptq.Method.
func (APQViT) Name() string { return "APQ-ViT" }

// affineQuantizer maps x to round(x/scale)+zp clipped to [0, 2^b−1].
type affineQuantizer struct {
	scale float64
	zp    int64
	bits  int
}

// value clips in float64 and never converts to an integer: a quotient
// past 2^63, or ±Inf, has no defined int64 and could land on either end
// of the grid. NaN takes level 0. Levels and zero points are integers
// far below 2^53, so the sum and the difference are exact.
func (a affineQuantizer) value(x float64) float64 {
	hi := float64(int64(1)<<a.bits - 1)
	zp := float64(a.zp)
	q := math.RoundToEven(x/a.scale) + zp
	if !(q >= 0) {
		q = 0
	}
	if q > hi {
		q = hi
	}
	return (q - zp) * a.scale
}

// Apply implements ptq.TensorQuantizer.
func (a affineQuantizer) Apply(x *tensor.Tensor) *tensor.Tensor {
	d := x.Data()
	for i, v := range d {
		d[i] = a.value(v)
	}
	return x
}

// calibrateAffine searches clip fractions on both endpoints.
func calibrateAffine(xs []float64, bits int) affineQuantizer {
	lo, hi := xs[0], xs[0]
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	levels := float64(int64(1)<<bits - 1)
	grid := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	best := affineQuantizer{scale: usableDelta((hi - lo) / levels), bits: bits}
	best.zp = int64(math.RoundToEven(-lo / best.scale))
	bestMSE := math.Inf(1)
	for _, al := range grid {
		for _, ah := range grid {
			clo, chi := lo*al, hi*ah
			if lo >= 0 {
				clo = lo // one-sided data keeps its zero anchor
			}
			if chi <= clo {
				continue
			}
			cand := affineQuantizer{scale: usableDelta((chi - clo) / levels), bits: bits}
			cand.zp = int64(math.RoundToEven(-clo / cand.scale))
			var mse float64
			for _, v := range xs {
				e := v - cand.value(v)
				mse += e * e
			}
			if mse < bestMSE {
				best, bestMSE = cand, mse
			}
		}
	}
	return best
}

// CalibrateActivation implements ptq.Method.
func (APQViT) CalibrateActivation(stats *ptq.SiteStats, bits int) ptq.TensorQuantizer {
	return calibrateAffine(stats.Samples, bits)
}

// QuantizeWeight implements ptq.Method: weights are near-symmetric, so
// APQ-ViT quantizes them uniformly with clipping search.
func (APQViT) QuantizeWeight(site vit.Site, w *tensor.Tensor, bits int) {
	BaseQ{}.QuantizeWeight(site, w, bits)
}
