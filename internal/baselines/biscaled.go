package baselines

import (
	"math"
	"sort"

	"quq/internal/ptq"
	"quq/internal/quant"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// BiScaled implements BiScaled-FxP (Jain et al., DAC 2019): every tensor
// is quantized with two scale factors sharing one bit-width — a fine
// scale for the bulk and a coarse scale (a power-of-two multiple of the
// fine one) for the outliers — with an index table recording which
// positions are outliers.
//
// Crucially, BiScaled-DNN builds its index table *statically* from the
// calibration data (it was designed for long-tailed data structures such
// as weights): here the table flags outlier channels of the tensor's
// last axis. Values that land outside the fine range in an unflagged
// channel at inference time are clipped — the failure mode the QUQ paper
// observes on ViT activations, whose outliers move with the input. The
// threshold search below is the MSE-based optimization the paper grants
// the method ("the optimization techniques used in QUQ are also applied
// to BiScaled-FxP").
type BiScaled struct{}

// Name implements ptq.Method.
func (BiScaled) Name() string { return "BiScaled-FxP" }

// biScaledQuantizer holds the static channel index table. An element in
// an outlier channel uses fineDelta·2^ratioLog; everything else uses
// fineDelta and clips at the fine range.
type biScaledQuantizer struct {
	fineDelta   float64
	ratioLog    int
	bits        int
	outlierChan []bool
}

func (b biScaledQuantizer) deltaFor(ch int) float64 {
	if ch >= 0 && ch < len(b.outlierChan) && b.outlierChan[ch] {
		return b.fineDelta * float64(int64(1)<<b.ratioLog)
	}
	return b.fineDelta
}

func (b biScaledQuantizer) value(x float64, ch int) float64 {
	return quant.Uniform(x, b.deltaFor(ch), b.bits)
}

// Apply implements ptq.TensorQuantizer. Tensors whose channel width does
// not match the calibrated table are treated as all-bulk.
func (b biScaledQuantizer) Apply(x *tensor.Tensor) *tensor.Tensor {
	cols := x.Dim(x.Rank() - 1)
	match := cols == len(b.outlierChan)
	d := x.Data()
	for i, v := range d {
		ch := -1
		if match {
			ch = i % cols
		}
		d[i] = b.value(v, ch)
	}
	return x
}

// calibrateBiScaled searches the outlier-channel count k: the top-k
// channels by calibration absmax are flagged, the fine scale covers the
// largest unflagged channel, and the power-of-two ratio extends the
// coarse range to the global absmax. Candidates are scored by MSE on the
// channel-tagged reservoir.
func calibrateBiScaled(samples []float64, chans []int32, chanAbsMax []float64, bits int) biScaledQuantizer {
	hi := float64(int64(1)<<(bits-1) - 1)
	absmax := 0.0
	for _, v := range samples {
		if a := math.Abs(v); a > absmax {
			absmax = a
		}
	}
	if absmax == 0 || len(chanAbsMax) == 0 {
		return biScaledQuantizer{fineDelta: 1, bits: bits}
	}
	// Channels sorted by descending absmax.
	idx := make([]int, len(chanAbsMax))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return chanAbsMax[idx[a]] > chanAbsMax[idx[b]] })

	cols := len(chanAbsMax)
	candidates := []int{0, 1, 2, 4, 8, 16, cols / 8, cols / 4}
	best := biScaledQuantizer{fineDelta: usableDelta(absmax / hi), bits: bits, outlierChan: make([]bool, cols)}
	bestMSE := math.Inf(1)
	tried := map[int]bool{}
	for _, k := range candidates {
		if k < 0 || k >= cols || tried[k] {
			continue
		}
		tried[k] = true
		flags := make([]bool, cols)
		for _, c := range idx[:k] {
			flags[c] = true
		}
		// Fine scale covers the widest unflagged channel.
		fineMax := 0.0
		for c, a := range chanAbsMax {
			if !flags[c] && a > fineMax {
				fineMax = a
			}
		}
		if fineMax == 0 {
			continue
		}
		fine := usableDelta(fineMax / hi)
		ratio := 0
		for fine*float64(int64(1)<<ratio)*hi < absmax && ratio < 12 {
			ratio++
		}
		cand := biScaledQuantizer{fineDelta: fine, ratioLog: ratio, bits: bits, outlierChan: flags}
		var mse float64
		for i, v := range samples {
			ch := -1
			if i < len(chans) {
				ch = int(chans[i])
			}
			e := v - cand.value(v, ch)
			mse += e * e
		}
		if mse < bestMSE {
			best, bestMSE = cand, mse
		}
	}
	return best
}

// CalibrateActivation implements ptq.Method.
func (BiScaled) CalibrateActivation(stats *ptq.SiteStats, bits int) ptq.TensorQuantizer {
	return calibrateBiScaled(stats.Samples, stats.SampleChans, stats.ChanAbsMax, bits)
}

// QuantizeWeight implements ptq.Method: weights are a static data
// structure, so the index table is exact — BiScaled's home turf.
func (BiScaled) QuantizeWeight(_ vit.Site, w *tensor.Tensor, bits int) {
	out := w.Dim(1)
	chanAbsMax := make([]float64, out)
	d := w.Data()
	for i, v := range d {
		c := i % out
		if a := math.Abs(v); a > chanAbsMax[c] {
			chanAbsMax[c] = a
		}
	}
	chans := make([]int32, len(d))
	for i := range chans {
		chans[i] = int32(i % out)
	}
	calibrateBiScaled(d, chans, chanAbsMax, bits).Apply(w)
}
