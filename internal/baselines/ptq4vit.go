package baselines

import (
	"math"

	"quq/internal/ptq"
	"quq/internal/quant"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// PTQ4ViT implements twin uniform quantization: post-Softmax activations
// are split at 2^−k into a small-value range and a large-value range with
// separate scale factors, and post-GELU activations get separate negative
// and positive scale factors; each range spends half the encoding space.
// All other tensors fall back to uniform quantization with clipping
// search. This is the "subset of QUQ" the paper identifies in §5.
type PTQ4ViT struct{}

// Name implements ptq.Method.
func (PTQ4ViT) Name() string { return "PTQ4ViT" }

// CalibrateActivation implements ptq.Method.
func (PTQ4ViT) CalibrateActivation(stats *ptq.SiteStats, bits int) ptq.TensorQuantizer {
	switch {
	case isPostSoftmax(stats.Site):
		return calibrateTwinSoftmax(stats.Samples, bits)
	case isPostGELU(stats.Site):
		return calibrateTwinGELU(stats.Samples, bits)
	default:
		return searchedUniform(stats.Samples, bits)
	}
}

// QuantizeWeight implements ptq.Method (uniform, as in PTQ4ViT).
func (PTQ4ViT) QuantizeWeight(site vit.Site, w *tensor.Tensor, bits int) {
	BaseQ{}.QuantizeWeight(site, w, bits)
}

// twinSoftmaxQuantizer quantizes [0,1] attention probabilities with two
// ranges: [0, 2^−k) at fine resolution and [0, 1] at coarse resolution,
// each with 2^(b−1) codes.
type twinSoftmaxQuantizer struct {
	k    int
	bits int
}

func (t twinSoftmaxQuantizer) value(x float64) float64 {
	half := float64(int64(1) << (t.bits - 1))
	split := math.Ldexp(1, -t.k)
	if x < split {
		d := split / half
		q := math.RoundToEven(x / d)
		if q > half-1 {
			q = half - 1
		}
		if q < 0 {
			q = 0
		}
		return q * d
	}
	d := 1.0 / half
	q := math.RoundToEven(x / d)
	if q > half {
		q = half
	}
	return q * d
}

// Apply implements ptq.TensorQuantizer.
func (t twinSoftmaxQuantizer) Apply(x *tensor.Tensor) *tensor.Tensor {
	d := x.Data()
	for i, v := range d {
		d[i] = t.value(v)
	}
	return x
}

func calibrateTwinSoftmax(xs []float64, bits int) ptq.TensorQuantizer {
	best := twinSoftmaxQuantizer{k: 1, bits: bits}
	bestMSE := math.Inf(1)
	for k := 1; k <= bits+2; k++ {
		cand := twinSoftmaxQuantizer{k: k, bits: bits}
		var mse float64
		for _, v := range xs {
			e := v - cand.value(v)
			mse += e * e
		}
		if mse < bestMSE {
			best, bestMSE = cand, mse
		}
	}
	return best
}

// twinGELUQuantizer gives the bounded negative side and the long-tailed
// positive side of a GELU output separate scale factors, each with
// 2^(b−1) codes: U_b at dNeg below zero, at dPos from zero up.
type twinGELUQuantizer struct {
	dNeg, dPos float64
	bits       int
}

func (t twinGELUQuantizer) value(x float64) float64 {
	if x < 0 {
		return quant.Uniform(x, t.dNeg, t.bits)
	}
	return quant.Uniform(x, t.dPos, t.bits)
}

// Apply implements ptq.TensorQuantizer.
func (t twinGELUQuantizer) Apply(x *tensor.Tensor) *tensor.Tensor {
	d := x.Data()
	for i, v := range d {
		d[i] = t.value(v)
	}
	return x
}

func calibrateTwinGELU(xs []float64, bits int) ptq.TensorQuantizer {
	var maxNeg, maxPos float64
	for _, v := range xs {
		if v < 0 && -v > maxNeg {
			maxNeg = -v
		}
		if v > maxPos {
			maxPos = v
		}
	}
	if maxNeg == 0 {
		maxNeg = 1e-9
	}
	if maxPos == 0 {
		maxPos = 1e-9
	}
	half := float64(int64(1) << (bits - 1))
	best := twinGELUQuantizer{dNeg: usableDelta(maxNeg / half), dPos: usableDelta(maxPos / (half - 1)), bits: bits}
	bestMSE := math.Inf(1)
	for _, an := range ptq.DefaultAlphaGrid {
		for _, ap := range ptq.DefaultAlphaGrid {
			cand := twinGELUQuantizer{dNeg: usableDelta(an * maxNeg / half), dPos: usableDelta(ap * maxPos / (half - 1)), bits: bits}
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
