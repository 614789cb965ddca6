package baselines

import (
	"math"

	"quq/internal/ptq"
	"quq/internal/quant"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// FQViT implements the mechanisms of FQ-ViT (Lin et al.), the first
// fully-quantizing comparison method in Table 3:
//
//   - weights: row-wise (per output channel) symmetric uniform
//     quantization, giving each channel its own scale factor;
//   - post-Softmax activations: log2 quantization, whose exponential
//     code spacing matches the attention-probability distribution;
//   - LayerNorm inputs (the residual stream): power-of-two-factor (PTF)
//     quantization — one shared Δ with a per-channel power-of-two
//     multiplier absorbing the channel-wise magnitude spread;
//   - everything else: per-tensor uniform with clipping search.
type FQViT struct{}

// Name implements ptq.Method.
func (FQViT) Name() string { return "FQ-ViT" }

// CalibrateActivation implements ptq.Method.
func (FQViT) CalibrateActivation(stats *ptq.SiteStats, bits int) ptq.TensorQuantizer {
	switch {
	case isPostSoftmax(stats.Site):
		return log2Quantizer{bits: bits}
	case isResidualStream(stats.Site):
		return calibratePTF(stats, bits)
	default:
		return searchedUniform(stats.Samples, bits)
	}
}

// QuantizeWeight implements ptq.Method: per-output-channel symmetric
// uniform quantization (FQ-ViT's row-wise scheme; W is [in, out], so an
// output channel is a column).
func (FQViT) QuantizeWeight(_ vit.Site, w *tensor.Tensor, bits int) {
	in, out := w.Dim(0), w.Dim(1)
	hi := float64(int64(1)<<(bits-1) - 1)
	d := w.Data()
	for c := 0; c < out; c++ {
		absmax := 0.0
		for r := 0; r < in; r++ {
			if a := math.Abs(d[r*out+c]); a > absmax {
				absmax = a
			}
		}
		if absmax == 0 {
			continue
		}
		delta := usableDelta(absmax / hi)
		for r := 0; r < in; r++ {
			d[r*out+c] = quant.Uniform(d[r*out+c], delta, bits)
		}
	}
}

// log2Quantizer maps a probability x to 2^−q with q = round(−log2 x)
// clipped to [0, 2^b−1]; zero, negatives, NaN (and anything below the
// smallest representable power) map to 0 via the largest code.
type log2Quantizer struct{ bits int }

// Apply implements ptq.TensorQuantizer.
func (l log2Quantizer) Apply(x *tensor.Tensor) *tensor.Tensor {
	d := x.Data()
	maxCode := float64(int64(1)<<l.bits - 1)
	for i, v := range d {
		if !(v > 0) { // NaN too: int(NaN) below is platform-defined
			d[i] = 0
			continue
		}
		q := math.RoundToEven(-math.Log2(v))
		if q < 0 {
			q = 0
		}
		if q >= maxCode {
			d[i] = 0 // underflow: the reserved all-ones code means zero
			continue
		}
		d[i] = math.Ldexp(1, -int(q))
	}
	return x
}

// ptfQuantizer applies Δ·2^shift[c] per channel c of the last axis.
type ptfQuantizer struct {
	delta  float64
	shifts []int
	bits   int
}

// Apply implements ptq.TensorQuantizer. Tensors whose channel width does
// not match the calibrated layout fall back to the base Δ.
func (p ptfQuantizer) Apply(x *tensor.Tensor) *tensor.Tensor {
	cols := x.Dim(x.Rank() - 1)
	d := x.Data()
	for i, v := range d {
		delta := p.delta
		if cols == len(p.shifts) {
			delta = p.delta * float64(int64(1)<<p.shifts[i%cols])
		}
		d[i] = quant.Uniform(v, delta, p.bits)
	}
	return x
}

// calibratePTF picks the shared Δ and per-channel power-of-two shifts.
// The base Δ is anchored so the widest channel lands exactly on the
// maximum shift (giving it the same resolution per-tensor quantization
// would), but never below what the narrowest channel needs — then each
// channel takes the smallest shift that covers its own absmax. Channels
// narrower than the widest by up to 2^maxShift gain the full per-channel
// resolution advantage.
func calibratePTF(stats *ptq.SiteStats, bits int) ptq.TensorQuantizer {
	hi := float64(int64(1)<<(bits-1) - 1)
	const maxShift = 7 // FQ-ViT's 3-bit per-channel factor field
	minAbs, maxAbs := math.Inf(1), 0.0
	for _, a := range stats.ChanAbsMax {
		if a <= 0 {
			continue
		}
		if a < minAbs {
			minAbs = a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return ptq.QUQTensorQuantizer{Params: quant.ParamsForUniform(1, bits)}
	}
	base := maxAbs / hi / float64(int64(1)<<maxShift)
	if ideal := minAbs / hi; ideal > base {
		base = ideal
	}
	base = usableDelta(base)
	shifts := make([]int, len(stats.ChanAbsMax))
	for c, a := range stats.ChanAbsMax {
		if a <= 0 {
			continue
		}
		k := int(math.Ceil(math.Log2(a / hi / base)))
		if k < 0 {
			k = 0
		}
		if k > maxShift {
			k = maxShift
		}
		shifts[c] = k
	}
	return ptfQuantizer{delta: base, shifts: shifts, bits: bits}
}
