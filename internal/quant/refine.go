package quant

import "math"

// Calibrate produces a quantizer for xs by running PRA and then comparing
// it, on the calibration data itself, against the symmetric-uniform
// special case of QUQ. The better (lower-MSE) of the two is returned.
//
// This realizes the paper's compatibility claim — "with appropriate
// quantization settings, the performance of QUQ for any type of data will
// not be inferior to that of symmetric uniform quantization" — as an
// explicit calibration-time selection: the relaxation rounds of Algorithm
// 1 only ever grow scale factors, so on short-tailed data the Mode D
// fallback can be slightly coarser than plain uniform quantization, and
// the uniform special case wins.
func Calibrate(xs []float64, bits int, opts PRAOptions) *Params {
	p := PRA(xs, bits, opts)
	absmax := 0.0
	for _, v := range xs {
		if a := math.Abs(v); a > absmax {
			absmax = a
		}
	}
	u := ParamsForUniform(UniformDelta(absmax, bits), bits)
	if u.MSE(xs) < p.MSE(xs) {
		return u
	}
	return p
}

// RefineOptions controls the grid search of Refine.
type RefineOptions struct {
	// ScaleGrid is the set of multipliers applied jointly to every
	// enabled scale factor (smaller values trade outlier clipping for
	// bulk resolution). The identity 1.0 is always considered.
	ScaleGrid []float64
	// FineShifts is the set of extra power-of-two exponents tried on the
	// fine subranges only (e.g. −1 halves the fine Δ). 0 is always
	// considered. Only shifts that keep Δ_F ≤ Δ_C survive.
	FineShifts []int
	// MaxSamples caps the number of calibration samples scored per
	// candidate; larger tensors are strided down to this size.
	MaxSamples int
}

// DefaultRefineOptions mirrors the granularity of the PTQ4ViT-style grid
// search the paper applies after PRA.
func DefaultRefineOptions() RefineOptions {
	return RefineOptions{
		ScaleGrid:  []float64{0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00},
		FineShifts: []int{-1, 0, 1},
		MaxSamples: 1 << 14,
	}
}

// Refine performs the paper's post-PRA grid search at the tensor level:
// it scores joint scale multipliers and fine-subrange power-of-two shifts
// by quantization MSE on (a subsample of) xs, returning the best
// candidate. Every candidate preserves the Eq. (4) power-of-two invariant
// by construction. The input params are not modified.
func Refine(xs []float64, p *Params, opts RefineOptions) *Params {
	sample := xs
	if opts.MaxSamples > 0 && len(xs) > opts.MaxSamples {
		stride := (len(xs) + opts.MaxSamples - 1) / opts.MaxSamples
		sample = make([]float64, 0, opts.MaxSamples)
		for i := 0; i < len(xs); i += stride {
			sample = append(sample, xs[i])
		}
	}
	return RefineScored(p, opts, func(c *Params, bound float64) float64 { return c.mseBelow(sample, bound) })
}

// RefineScored is the generalized grid search: candidates are generated
// exactly as in Refine but ranked by an arbitrary score (lower is
// better). The accuracy pipeline uses it with a diagonal-Hessian-weighted
// error for weight tensors (the paper's layer-wise Hessian-guided
// optimization).
//
// bound is the score to beat: a candidate is kept only if it scores
// strictly below it, so a scorer whose running total can only grow may
// return early, with any value >= bound, the moment the total reaches
// bound — the selection is the one exhaustive scoring makes, ties
// included. Below bound it must return the exact score. The incumbent p
// is scored against a NaN bound, which no comparison satisfies.
func RefineScored(p *Params, opts RefineOptions, score func(c *Params, bound float64) float64) *Params {
	if len(opts.ScaleGrid) == 0 {
		opts.ScaleGrid = []float64{1.0}
	}
	if len(opts.FineShifts) == 0 {
		opts.FineShifts = []int{0}
	}

	best := p
	bestMSE := score(p, math.NaN())
	consider := func(c *Params) {
		if c.Validate() != nil {
			return
		}
		if m := score(c, bestMSE); m < bestMSE {
			best, bestMSE = c, m
		}
	}

	for _, alpha := range opts.ScaleGrid {
		if alpha <= 0 {
			continue
		}
		for _, shift := range opts.FineShifts {
			c := *p
			mul := math.Ldexp(1, shift)
			ok := true
			for i := range c.Slots {
				if !c.Slots[i].Enabled {
					continue
				}
				c.Slots[i].Delta *= alpha
				if Slot(i).Fine() {
					c.Slots[i].Delta *= mul
				}
			}
			// A fine subrange must stay no coarser than its coarse twin,
			// or the fine-first quantization rule loses its meaning.
			for _, pair := range [2][2]Slot{{FNeg, CNeg}, {FPos, CPos}} {
				f, co := c.Slots[pair[0]], c.Slots[pair[1]]
				if f.Enabled && co.Enabled && f.Delta > co.Delta*(1+1e-12) {
					ok = false
				}
			}
			if ok {
				consider(&c)
			}
		}
	}
	return best
}

// CalibrateRefined is the full tensor-level calibration pipeline used by
// the PTQ experiments: PRA, uniform-candidate selection, then grid-search
// refinement.
func CalibrateRefined(xs []float64, bits int, praOpts PRAOptions, refOpts RefineOptions) *Params {
	return Refine(xs, Calibrate(xs, bits, praOpts), refOpts)
}
