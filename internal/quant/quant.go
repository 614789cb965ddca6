// Package quant implements the paper's primary contribution: quadruplet
// uniform quantization (QUQ), together with the symmetric uniform
// quantizer it generalizes.
//
// QUQ divides a tensor's value range into at most four subranges — fine
// negative (F−), fine positive (F+), coarse negative (C−) and coarse
// positive (C+) — each uniformly quantized with its own scale factor. All
// scale factors are constrained to power-of-two ratios of a shared base Δ
// (Eq. (4) in the paper), so an integer dot product only needs a shift per
// element (Eq. (5)). The partition and scale factors are chosen from
// calibration data by the progressive relaxation algorithm (PRA,
// Algorithms 1–2), implemented in pra.go.
//
// The quantizer exists twice on purpose. Params.Quantize/Value is Eq. (3)
// as the paper writes it — round by the fine Δ, fall to the coarse
// subrange if the code does not fit — one element at a time: the
// specification, and the oracle of every test. Kernel (kernel.go, behind
// Params.QuantizeSlice) is the same function in threshold form for
// slices: branch-free, one divide per element, bit-identical to Value.
// Forward passes and calibration scoring both run the kernel.
//
// Terminology note: one "magnitude code" is the unsigned integer m such
// that the dequantized value is ±m·Δ_slot. A b-bit QUQ quantizer spends
// 2^(b−2) codes per subrange in Mode A, and 2^(b−1) codes on a subrange
// whose encoding space was merged with its twin (Modes B–D).
package quant

import (
	"fmt"
	"math"
	"quq/internal/check"
)

// Uniform applies the symmetric uniform quantizer U_b of Eq. (1):
// round to the nearest multiple of delta, clip to a signed b-bit integer,
// and return the dequantized value.
func Uniform(x, delta float64, bits int) float64 {
	return float64(UniformCode(x, delta, bits)) * delta
}

// UniformCode returns the signed integer code produced by U_b.
func UniformCode(x, delta float64, bits int) int64 {
	if delta <= 0 {
		panic(check.Invariant("quant: Uniform requires delta > 0"))
	}
	lo := -(int64(1) << (bits - 1))
	hi := (int64(1) << (bits - 1)) - 1
	q := saturatingRound(x / delta)
	if q < lo {
		q = lo
	}
	if q > hi {
		q = hi
	}
	return q
}

// saturatingRound rounds v to the nearest int64, saturating at the
// integer range instead of hitting Go's implementation-specific
// out-of-range float-to-int conversion (a tiny Δ against a huge value
// can push the quotient past 2^63, or to +Inf). NaN, which has no
// integer on any platform, rounds to 0: Uniform and Value then both
// give it the canonical zero.
func saturatingRound(v float64) int64 {
	r := math.RoundToEven(v)
	if r != r {
		return 0
	}
	if r >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	if r <= float64(math.MinInt64) {
		return math.MinInt64
	}
	return int64(r)
}

// UniformDelta returns the symmetric-uniform scale factor that covers
// [-absmax, absmax] with b bits: Δ = absmax / (2^(b−1) − 1). This is the
// BaseQ calibration rule used throughout the paper's comparisons.
func UniformDelta(absmax float64, bits int) float64 {
	if absmax < praMagFloor {
		// Degenerate tensor: magnitudes below the PRA floor carry no
		// usable range information and are treated as exact zeros
		// (see splitMagnitudes). Any positive delta quantizes them
		// exactly; 1 keeps downstream arithmetic well-behaved. The floor
		// also keeps the division below from underflowing the delta to
		// zero when absmax is subnormal.
		return 1
	}
	return absmax / float64((int64(1)<<(bits-1))-1)
}

// Slot identifies one of the four QUQ subranges.
type Slot int

// The four subrange slots, in the paper's F−/F+/C−/C+ order.
const (
	FNeg Slot = iota
	FPos
	CNeg
	CPos
	numSlots
)

// String returns the paper's name for the slot.
func (s Slot) String() string {
	switch s {
	case FNeg:
		return "F-"
	case FPos:
		return "F+"
	case CNeg:
		return "C-"
	case CPos:
		return "C+"
	}
	return fmt.Sprintf("Slot(%d)", int(s))
}

// Negative reports whether the slot quantizes negative values.
func (s Slot) Negative() bool { return s == FNeg || s == CNeg }

// Fine reports whether the slot is a fine subrange.
func (s Slot) Fine() bool { return s == FNeg || s == FPos }

// Mode is the QUQ operating mode of Figure 4.
type Mode int

const (
	// ModeA is the general form: four active subranges, one quarter of
	// the encoding space each.
	ModeA Mode = iota
	// ModeB serves one-signed tensors: both subranges on the empty side
	// are merged into the occupied side, doubling its resolution.
	ModeB
	// ModeC merges the two coarse subranges when one side of zero has no
	// significant tail; the tail-free side becomes uniform at its coarse
	// scale and the other side's coarse subrange doubles its resolution.
	ModeC
	// ModeD is the fallback: fine and coarse encoding spaces are merged
	// separately and assigned to the positive and negative sides, so each
	// side degenerates to uniform quantization.
	ModeD
)

func (m Mode) String() string {
	switch m {
	case ModeA:
		return "A"
	case ModeB:
		return "B"
	case ModeC:
		return "C"
	case ModeD:
		return "D"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// SlotParams describes one subrange of a QUQ quantizer.
type SlotParams struct {
	// Enabled reports whether the subrange participates; a disabled slot
	// corresponds to the paper's ∅ scale factor.
	Enabled bool
	// Delta is the subrange's scale factor.
	Delta float64
	// MaxMag is the largest magnitude code the subrange can store, so the
	// representable values are {0, ±Δ, …, ±MaxMag·Δ} on the slot's side
	// of zero. Per the paper's U_{b−1} convention, a negative subrange
	// with 2^(b−2) codes reaches magnitude 2^(b−2) while its positive
	// twin reaches 2^(b−2)−1 (two's complement asymmetry).
	MaxMag int64
}

// Params is a fully-specified b-bit QUQ quantizer: the four subranges plus
// the mode that determined them. Construct Params with PRA (the paper's
// calibration algorithm) or ParamsForUniform; hand-built values should be
// checked with Validate.
type Params struct {
	Bits  int
	Mode  Mode
	Slots [4]SlotParams
}

// Slot returns the parameters for s.
func (p *Params) Slot(s Slot) SlotParams { return p.Slots[s] }

// BaseDelta returns the shared base scale factor Δ of Eq. (4): the
// smallest enabled subrange scale factor.
func (p *Params) BaseDelta() float64 {
	base := math.Inf(1)
	for _, s := range p.Slots {
		if s.Enabled && s.Delta < base {
			base = s.Delta
		}
	}
	if math.IsInf(base, 1) {
		return 1
	}
	return base
}

// Shift returns log2(Δ_slot / Δ_base) for an enabled slot: the number of
// bits an element of that subrange is shifted left in the Eq. (5) dot
// product. The result is a small non-negative integer when Validate
// passes.
func (p *Params) Shift(s Slot) int {
	sl := p.Slots[s]
	if !sl.Enabled {
		return 0
	}
	return int(math.Round(math.Log2(sl.Delta / p.BaseDelta())))
}

// MaxCodeMag returns the largest pre-shifted integer magnitude any code
// of this quantizer can decode to: max over enabled slots of
// MaxMag << Shift(slot). Every fake-quantized value is m·BaseDelta() with
// |m| ≤ MaxCodeMag, which bounds integer-GEMM accumulators: a depth-k dot
// product of operands quantized with px and pw accumulates at most
// k·px.MaxCodeMag()·pw.MaxCodeMag() in absolute value.
func (p *Params) MaxCodeMag() int64 {
	var max int64
	for i, sl := range p.Slots {
		if !sl.Enabled {
			continue
		}
		if m := sl.MaxMag << uint(p.Shift(Slot(i))); m > max {
			max = m
		}
	}
	return max
}

// Validate checks the Eq. (4) invariant — every enabled scale factor is a
// non-negative power-of-two multiple of the base Δ — plus basic sanity of
// the slot layout. It returns nil for a usable quantizer.
func (p *Params) Validate() error {
	if p.Bits < 3 || p.Bits > 16 {
		return fmt.Errorf("quant: unsupported bit-width %d (want 3..16)", p.Bits)
	}
	anyEnabled := false
	base := p.BaseDelta()
	for i, sl := range p.Slots {
		if !sl.Enabled {
			continue
		}
		anyEnabled = true
		if sl.Delta <= 0 || math.IsNaN(sl.Delta) || math.IsInf(sl.Delta, 0) {
			return fmt.Errorf("quant: slot %v has invalid delta %v", Slot(i), sl.Delta)
		}
		if sl.MaxMag <= 0 {
			return fmt.Errorf("quant: slot %v has invalid MaxMag %d", Slot(i), sl.MaxMag)
		}
		ratio := sl.Delta / base
		k := math.Log2(ratio)
		if k < -1e-9 || math.Abs(k-math.Round(k)) > 1e-9 {
			return fmt.Errorf("quant: slot %v delta %v is not a power-of-two multiple of base %v (Eq. 4)", Slot(i), sl.Delta, base)
		}
	}
	if !anyEnabled {
		return fmt.Errorf("quant: no enabled subranges")
	}
	return nil
}

// Code is the quantization result for one element: the subrange it fell
// into and its magnitude code. The dequantized value is Dequantize().
type Code struct {
	Slot Slot
	Mag  int64
}

// Quantize maps x to its QUQ code per Eq. (3): fine subrange if the
// rounded magnitude is representable there, otherwise the coarse subrange
// on the same side of zero (clipping at its bound). Values on a side with
// no enabled subranges clip to zero.
func (p *Params) Quantize(x float64) Code {
	if x == 0 {
		return Code{Slot: p.zeroSlot(), Mag: 0}
	}
	var fine, coarse Slot
	if x > 0 {
		fine, coarse = FPos, CPos
	} else {
		fine, coarse = FNeg, CNeg
		x = -x
	}
	f, c := p.Slots[fine], p.Slots[coarse]
	if f.Enabled {
		mag := roundMag(x / f.Delta)
		if mag <= f.MaxMag || !c.Enabled {
			if mag > f.MaxMag {
				mag = f.MaxMag
			}
			return p.normalizeZero(Code{Slot: fine, Mag: mag})
		}
	}
	if c.Enabled {
		mag := roundMag(x / c.Delta)
		if mag > c.MaxMag {
			mag = c.MaxMag
		}
		return p.normalizeZero(Code{Slot: coarse, Mag: mag})
	}
	// No subrange on this side (Mode B tensor seeing a wrong-signed
	// value at inference time): clip to zero.
	return Code{Slot: p.zeroSlot(), Mag: 0}
}

// normalizeZero rewrites a zero-magnitude code onto the canonical zero
// slot, so that every representation of zero is the same code word. This
// matters for the QUB encoding: a merged negative space has no exact-zero
// word, while the canonical slot (a positive or both-signs slot whenever
// one is enabled) always does.
func (p *Params) normalizeZero(c Code) Code {
	if c.Mag != 0 {
		return c
	}
	return Code{Slot: p.zeroSlot(), Mag: 0}
}

// zeroSlot picks a slot to carry magnitude-0 codes: the first enabled
// fine slot, falling back to any enabled slot.
func (p *Params) zeroSlot() Slot {
	for _, s := range []Slot{FPos, FNeg, CPos, CNeg} {
		if p.Slots[s].Enabled {
			return s
		}
	}
	return FPos
}

func roundMag(v float64) int64 {
	return saturatingRound(v)
}

// Dequantize converts a code back to its real value.
func (p *Params) Dequantize(c Code) float64 {
	v := float64(c.Mag) * p.Slots[c.Slot].Delta
	if c.Slot.Negative() {
		return -v
	}
	return v
}

// Value quantizes x and immediately dequantizes it ("fake quantization"),
// which is how the accuracy experiments simulate QUQ inference.
func (p *Params) Value(x float64) float64 {
	return p.Dequantize(p.Quantize(x))
}

// QuantizeSlice fake-quantizes every element of xs into out (which may
// alias xs), bit-identical to Value element-wise. It panics if the
// lengths differ.
//
// This is the per-forward hot loop (every activation site runs it): it
// compiles p into a Kernel — Eq. (3) in threshold form, one divide per
// element and no branch on the data — and runs that. Value stays the
// specification; quant_test.go and FuzzQuantizeSlice hold the kernel to
// it bit for bit.
func (p *Params) QuantizeSlice(out, xs []float64) {
	k := p.Kernel()
	k.Quantize(out, xs)
}

// MSE returns the mean squared quantization error of p over xs, the metric
// of the paper's Table 1.
func (p *Params) MSE(xs []float64) float64 {
	return p.mseBelow(xs, math.NaN())
}

// abandonBlock is how many samples mseBelow scores between two looks at
// its bound: often enough that a hopeless candidate stops within a few
// percent of a 16k-sample pass, rarely enough that the divide does not
// register.
const abandonBlock = 256

// mseBelow is MSE with an exact early exit for a search that only keeps
// a candidate scoring strictly below bound: once the running mean
// reaches bound it stops and returns that partial mean. Squared errors
// are non-negative, so the floating-point running sum never decreases
// and neither does its quotient by the fixed n — a partial mean >= bound
// proves the full one is too, and the caller's `< bound` test rejects
// either. A result below bound is always the full MSE, summed in MSE's
// order. A NaN bound compares false against everything and never exits
// early.
func (p *Params) mseBelow(xs []float64, bound float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := float64(len(xs))
	k := p.Kernel()
	var s float64
	for len(xs) > 0 {
		blk := xs[:min(abandonBlock, len(xs))]
		xs = xs[len(blk):]
		s = k.SumSqErr(s, blk)
		if s/n >= bound {
			break
		}
	}
	return s / n
}

// UniformMSE returns the mean squared error of symmetric uniform b-bit
// quantization with the given delta over xs (the BaseQ row of Table 1).
func UniformMSE(xs []float64, delta float64, bits int) float64 {
	return ParamsForUniform(delta, bits).MSE(xs)
}

// ParamsForUniform builds the QUQ parameter set that reproduces symmetric
// uniform quantization exactly (the paper's observation that uniform
// quantization is the Δ_C− = Δ_F+ special case of Mode D). The returned
// quantizer has the same representable points as Uniform(·, delta, bits).
func ParamsForUniform(delta float64, bits int) *Params {
	if delta <= 0 {
		panic(check.Invariant("quant: ParamsForUniform requires delta > 0"))
	}
	half := int64(1) << (bits - 1)
	p := &Params{Bits: bits, Mode: ModeD}
	p.Slots[FPos] = SlotParams{Enabled: true, Delta: delta, MaxMag: half - 1}
	p.Slots[CNeg] = SlotParams{Enabled: true, Delta: delta, MaxMag: half}
	return p
}

// String summarizes the quantizer.
func (p *Params) String() string {
	s := fmt.Sprintf("QUQ{b=%d mode=%v", p.Bits, p.Mode)
	for i, sl := range p.Slots {
		if sl.Enabled {
			s += fmt.Sprintf(" %v:Δ=%.4g×%d", Slot(i), sl.Delta, sl.MaxMag)
		}
	}
	return s + "}"
}
