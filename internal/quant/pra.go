package quant

import (
	"math"
	"math/bits"
	"quq/internal/check"
	"sort"
)

// PRAOptions are the hyperparameters of the progressive relaxation
// algorithm (the paper's Algorithm 2). DefaultPRAOptions returns the
// values used in all of the paper's experiments.
type PRAOptions struct {
	// LambdaA is the acceptable ratio λ_A of Δ_C/Δ_F below which a
	// coarse-fine partition wastes too much encoding space.
	LambdaA float64
	// QInit is the initial quantile q that bounds the fine subranges.
	QInit float64
	// QAccept is the acceptable quantile q_A at which the recursive
	// relaxation of q stops.
	QAccept float64
	// QStep is the amount q is reduced by per relaxation round; the paper
	// uses 0.01.
	QStep float64
	// DisableModeSwitch, when set, keeps the Mode A parameters even when
	// a branch of Algorithm 2 would switch to Mode B/C/D. This exists
	// only for the ablation experiments; the paper always mode-switches.
	DisableModeSwitch bool
}

// DefaultPRAOptions returns λ_A=4, q=0.99, q_A=0.95, the paper's settings.
func DefaultPRAOptions() PRAOptions {
	return PRAOptions{LambdaA: 4, QInit: 0.99, QAccept: 0.95, QStep: 0.01}
}

// Relax implements Algorithm 1: adjust one of two positive scale factors
// so their ratio becomes an exact power of two, rounding the ratio (in the
// log domain) to the nearest integer and always growing — never shrinking
// — a factor, so no additional calibration data gets clipped.
func Relax(d1, d2 float64) (float64, float64) {
	if d1 <= 0 || d2 <= 0 {
		panic(check.Invariantf("quant: Relax requires positive scale factors, got %v, %v", d1, d2))
	}
	l := math.Log2(d2 / d1)
	r := int(math.Round(l))
	if float64(r) > l {
		// Rounding up: make Δ2 larger so Δ2/Δ1 = 2^r exactly. Ldexp
		// scales by the exact power of two, which keeps the Eq. (4)
		// invariant bit-exact where math.Pow would only approximate it.
		return d1, math.Ldexp(d1, r)
	}
	// Rounding down (or exact): make Δ1 larger so Δ2/Δ1 = 2^r exactly.
	return math.Ldexp(d2, -r), d2
}

// PRA runs the progressive relaxation algorithm (Algorithm 2) on the
// calibration samples xs and returns a validated b-bit QUQ quantizer.
//
// One-signed tensors take the paper's Mode B path: the data is mirrored
// about zero, Algorithm 2 runs on the symmetric tensor, and the mirror
// side's encoding space is merged into the occupied side (doubling its
// resolution). An all-zero tensor yields a trivial uniform quantizer.
//
// PRA panics on options whose quantile walk (see praQMin) leaves [0, 1]
// or does not stop.
func PRA(xs []float64, bits int, opts PRAOptions) *Params {
	if bits < 3 {
		panic(check.Invariantf("quant: PRA requires at least 3 bits, got %d", bits))
	}
	neg, pos := splitMagnitudes(xs, praQMin(opts))
	var p *Params
	switch {
	case len(neg) == 0 && len(pos) == 0:
		p = ParamsForUniform(1, bits)
	case len(neg) == 0:
		p = praOneSided(pos, bits, opts, false)
	case len(pos) == 0:
		p = praOneSided(neg, bits, opts, true)
	default:
		p = praCore(neg, pos, bits, opts, opts.QInit)
	}
	if err := p.Validate(); err != nil {
		// PRA constructs parameters that satisfy Eq. (4) by design; a
		// failure here is a bug, not a data condition.
		panic(check.Invariantf("quant: PRA produced invalid parameters: %v", err))
	}
	return p
}

// praMagFloor and praMagCeil bound the calibration magnitudes PRA works
// with. Magnitudes below 2^-500 carry no usable range information and
// are treated as exact zeros; magnitudes above 2^500 are clipped. Inside
// this window every derived quantity — per-subrange scale factors, their
// cross ratios, and the Relax power-of-two adjustments — stays finite
// and positive in float64, so Algorithm 2 cannot underflow a Δ to zero
// or overflow one to +Inf on adversarial (e.g. fuzzed) input. Realistic
// calibration data sits hundreds of orders of magnitude inside the
// window and is unaffected.
var (
	praMagFloor = math.Ldexp(1, -500)
	praMagCeil  = math.Ldexp(1, 500)
)

// praMaxRelax bounds the quantile walk of praQMin, and so the depth of
// praCore's recursion: the paper's settings take 4 steps, and a step of
// 0.001 walks all of [0, 1] in 1000.
const praMaxRelax = 1 << 10

// relaxes reports whether Algorithm 2 may still relax the quantile q
// (q has not yet reached q_A).
func (o PRAOptions) relaxes(q float64) bool { return q > o.QAccept+1e-9 }

// praQMin returns the smallest quantile praCore can read under opts. It
// takes the same float steps praCore's relaxation does — from QInit,
// q -= QStep while relaxes(q), or QInit alone under DisableModeSwitch —
// so every q praCore reads is at least the value returned.
//
// It panics if QInit lies outside [0, 1], or if the walk leaves [0, 1],
// stalls (QStep ≤ 0, NaN, or below q's precision) or takes more than
// praMaxRelax steps: praCore would index outside the magnitudes or
// recurse without bound.
func praQMin(opts PRAOptions) float64 {
	q := opts.QInit
	if !(q >= 0 && q <= 1) {
		panic(check.Invariantf("quant: PRA requires QInit in [0, 1], got %v", q))
	}
	if opts.DisableModeSwitch {
		return q
	}
	for steps := 0; opts.relaxes(q); steps++ {
		next := q - opts.QStep
		if !(next < q) || next < 0 || steps == praMaxRelax {
			panic(check.Invariantf("quant: PRA's quantile walk from QInit %v by QStep %v to QAccept %v must descend within [0, 1] and stop within %d steps",
				opts.QInit, opts.QStep, opts.QAccept, praMaxRelax))
		}
		q = next
	}
	return q
}

// splitMagnitudes separates xs into the magnitudes of its negative
// elements and of its positive elements (Algorithm 2 line 3), as the
// two ends of one buffer. Each side is in ascending order only from
// sortedQuantile's lower index at qMin upward, the part Algorithm 2
// reads for any q ≥ qMin; below it the order is arbitrary. Magnitudes
// are clamped into [praMagFloor, praMagCeil]; see the bound comment
// above.
func splitMagnitudes(xs []float64, qMin float64) (neg, pos []float64) {
	buf := make([]float64, len(xs))
	i, j := 0, len(buf)
	for _, v := range xs {
		m := math.Abs(v)
		if m < praMagFloor {
			continue
		}
		if m > praMagCeil {
			m = praMagCeil
		}
		if v > 0 {
			j--
			buf[j] = m
		} else {
			buf[i] = m
			i++
		}
	}
	neg, pos = buf[:i], buf[j:]
	for _, side := range [][]float64{neg, pos} {
		if n := len(side); n > 0 {
			sortFrom(side, int(math.Floor(qMin*float64(n-1))), 3*bits.Len(uint(n)))
		}
	}
	return neg, pos
}

// sortFrom reorders xs so that xs[k:] holds exactly what sort.Float64s
// would put there (ascending, NaNs first); xs[:k] is left in arbitrary
// order. It quickselects index k with three-way partitions around a
// sampled estimate of the k-th value, then sorts the tail. After budget
// partitions the remaining range is sorted outright, so the work stays
// O(n log n) on inputs that defeat the sample.
func sortFrom(xs []float64, k, budget int) {
	// NaNs order first: gather them at the front, then select among the
	// rest with plain comparisons.
	nan := 0
	for i, v := range xs {
		if math.IsNaN(v) {
			xs[i], xs[nan] = xs[nan], v
			nan++
		}
	}
	k = max(k, nan)
	// Invariant: every element of xs[:lo] ≤ every element of xs[lo:hi]
	// ≤ every element of xs[hi:], and xs[k:lo] is in its final order.
	lo, hi := nan, len(xs)
	for hi-lo > 16 && budget > 0 {
		budget--
		lt, gt := partition3(xs[lo:hi], samplePivot(xs[lo:hi], k-lo))
		lt, gt = lo+lt, lo+gt
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			// xs[k:gt] all equal the pivot: only xs[gt:] is unordered.
			lo, hi = gt, gt
		}
	}
	sort.Float64s(xs[lo:hi])
	sort.Float64s(xs[hi:])
}

// samplePivot estimates the k-th smallest of NaN-free xs (len(xs) ≥ 2,
// k < len(xs)) as the element of matching rank among 32 evenly strided
// samples. One partition around it leaves k in a range a few percent of
// len(xs) wide, and the partition's branches are as predictable as the
// pivot's rank is lopsided (PRA's k sits near the top).
func samplePivot(xs []float64, k int) float64 {
	const m = 32
	var s [m]float64
	n := len(xs)
	for i := range s {
		s[i] = xs[i*(n-1)/(m-1)]
	}
	sort.Float64s(s[:])
	return s[k*(m-1)/(n-1)]
}

// partition3 partitions NaN-free xs around p, which xs holds, into
// xs[:lt] < p, xs[lt:gt] == p and xs[gt:] > p.
func partition3(xs []float64, p float64) (lt, gt int) {
	i := 0
	lt, gt = 0, len(xs)
	for i < gt {
		switch v := xs[i]; {
		case v < p:
			xs[lt], xs[i] = v, xs[lt]
			lt++
			i++
		case v > p:
			gt--
			xs[gt], xs[i] = v, xs[gt]
		default:
			i++
		}
	}
	return lt, gt
}

// sortedQuantile is the linear-interpolation quantile of an ascending
// slice.
func sortedQuantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// praCore is the two-sided body of Algorithm 2. neg and pos are ascending
// magnitude slices, both non-empty.
func praCore(neg, pos []float64, bits int, opts PRAOptions, q float64) *Params {
	quarterN := float64(int64(1) << (bits - 2)) // 2^(b-2): negative-side code count
	quarterP := quarterN - 1                    // 2^(b-2)-1: positive-side max code
	maxN, maxP := neg[len(neg)-1], pos[len(pos)-1]

	// Relaxation round 1: coarse factors from the range extremes.
	dCn, dCp := Relax(maxN/quarterN, maxP/quarterP)
	// Relaxation round 2: fine factors from the q-th quantile points.
	dFn, dFp := Relax(sortedQuantile(neg, q)/quarterN, sortedQuantile(pos, q)/quarterP)
	// Record the cross-sign ratios, then relaxation round 3 aligns the
	// positive fine and coarse factors; the negative ones follow via the
	// recorded ratios so all four factors share one base Δ.
	sF, sC := dFn/dFp, dCn/dCp
	dFp, dCp = Relax(dFp, dCp)
	dFn, dCn = sF*dFp, sC*dCp

	ratioN, ratioP := dCn/dFn, dCp/dFp
	lam := opts.LambdaA

	if !opts.DisableModeSwitch {
		switch {
		case ratioN < lam && ratioP < lam && opts.relaxes(q):
			// Both partitions waste encoding space: relax Principle ②
			// (fine coverage) by retrying with a smaller quantile.
			return praCore(neg, pos, bits, opts, q-opts.QStep)

		case ratioN < lam && dCn <= dFp:
			// Mode C, negative side tail-free: the negative part becomes
			// uniform at its initial coarse scale, and the freed coarse
			// encoding space doubles the positive coarse resolution.
			p := &Params{Bits: bits, Mode: ModeC}
			p.Slots[FNeg] = SlotParams{Enabled: true, Delta: dCn, MaxMag: int64(quarterN)}
			p.Slots[FPos] = SlotParams{Enabled: true, Delta: dFp, MaxMag: int64(quarterP)}
			p.Slots[CPos] = SlotParams{Enabled: true, Delta: dCp / 2, MaxMag: int64(1)<<(bits-1) - 1}
			return p

		case ratioP < lam && dCp <= dFn:
			// Mode C, positive side tail-free (mirror of the above).
			p := &Params{Bits: bits, Mode: ModeC}
			p.Slots[FPos] = SlotParams{Enabled: true, Delta: dCp, MaxMag: int64(quarterP)}
			p.Slots[FNeg] = SlotParams{Enabled: true, Delta: dFn, MaxMag: int64(quarterN)}
			p.Slots[CNeg] = SlotParams{Enabled: true, Delta: dCn / 2, MaxMag: int64(1) << (bits - 1)}
			return p

		case ratioN < lam || ratioP < lam:
			// Mode D fallback: merge the fine spaces onto the positive
			// side and the coarse spaces onto the negative side; each
			// side degenerates to uniform quantization at half its
			// initial coarse scale.
			p := &Params{Bits: bits, Mode: ModeD}
			p.Slots[FPos] = SlotParams{Enabled: true, Delta: dCp / 2, MaxMag: int64(1)<<(bits-1) - 1}
			p.Slots[CNeg] = SlotParams{Enabled: true, Delta: dCn / 2, MaxMag: int64(1) << (bits - 1)}
			return p
		}
	}

	p := &Params{Bits: bits, Mode: ModeA}
	p.Slots[FNeg] = SlotParams{Enabled: true, Delta: dFn, MaxMag: int64(quarterN)}
	p.Slots[FPos] = SlotParams{Enabled: true, Delta: dFp, MaxMag: int64(quarterP)}
	p.Slots[CNeg] = SlotParams{Enabled: true, Delta: dCn, MaxMag: int64(quarterN)}
	p.Slots[CPos] = SlotParams{Enabled: true, Delta: dCp, MaxMag: int64(quarterP)}
	return p
}

// praOneSided implements the Mode B construction: mirror the magnitudes
// about zero, run the core algorithm on the symmetric tensor, then merge
// the mirror side's encoding space into the occupied side by halving its
// scale factors and doubling its code counts.
//
// For a symmetric input the core algorithm returns Mode A unless the data
// has no meaningful tail; in the latter (Mode C/D) case the partition
// collapses and we fall back to uniform quantization of the occupied side
// with the merged fine+coarse space, which is the best QUB-representable
// layout for tail-free one-signed data.
func praOneSided(mags []float64, bits int, opts PRAOptions, negative bool) *Params {
	sym := praCore(mags, mags, bits, opts, opts.QInit)
	halfPos := int64(1)<<(bits-1) - 1
	halfNeg := int64(1) << (bits - 1)

	p := &Params{Bits: bits, Mode: ModeB}
	if sym.Mode == ModeA {
		fine, coarse := sym.Slots[FPos], sym.Slots[CPos]
		if negative {
			fine, coarse = sym.Slots[FNeg], sym.Slots[CNeg]
		}
		if negative {
			p.Slots[FNeg] = SlotParams{Enabled: true, Delta: fine.Delta / 2, MaxMag: halfNeg}
			p.Slots[CNeg] = SlotParams{Enabled: true, Delta: coarse.Delta / 2, MaxMag: halfNeg}
		} else {
			p.Slots[FPos] = SlotParams{Enabled: true, Delta: fine.Delta / 2, MaxMag: halfPos}
			p.Slots[CPos] = SlotParams{Enabled: true, Delta: coarse.Delta / 2, MaxMag: halfPos}
		}
		return p
	}

	// Tail-free fallback: uniform over the occupied side with 2^(b-1)
	// codes in the fine slot (coarse slot unused).
	maxM := mags[len(mags)-1]
	if negative {
		p.Slots[FNeg] = SlotParams{Enabled: true, Delta: maxM / float64(halfNeg), MaxMag: halfNeg}
	} else {
		p.Slots[FPos] = SlotParams{Enabled: true, Delta: maxM / float64(halfPos), MaxMag: halfPos}
	}
	return p
}
