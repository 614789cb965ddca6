package quant

import (
	"math"

	"quq/internal/check"
)

// lane is one row of the kernel's select table: the scale factor that
// divides a magnitude and multiplies its code back, and the largest code
// the subrange stores, as a float64 (exact: lanes are only built for
// MaxMag < 2^52).
type lane struct {
	delta, maxMag float64
}

// Kernel is a Params compiled for the slice loop: Eq. (3)'s "fine if the
// rounded magnitude fits, else coarse" in threshold form. Each side of
// zero has two lanes — magnitudes up to the side's limit quantize on the
// low lane, larger ones on the high lane — and the limit is the largest
// float64 whose quotient by the fine Δ still rounds into the fine range,
// so comparing a magnitude with it decides exactly what rounding first
// and comparing the code with MaxMag decides (division by a positive Δ
// and round-to-nearest-even are both monotone). A side with one enabled
// subrange repeats it on both lanes; an empty side gets {Δ=1, MaxMag=0},
// which clips everything to zero.
//
// A Kernel is a value: derive it once per Params with (*Params).Kernel
// and reuse it across slices; it does not follow later edits of the
// Params. Params whose lanes cannot be derived (a non-positive, NaN or
// infinite Δ, or a MaxMag outside [0, 2^52), on an enabled subrange) get
// a Kernel that runs the scalar Value on every element instead.
type Kernel struct {
	// lanes is indexed sign<<1 | high.
	lanes [4]lane
	// limit holds, per sign, the bits of the largest low-lane magnitude.
	limit [2]uint64
	// zero is the bits of the canonical zero value, which is −0.0 when
	// the canonical zero slot is a negative one.
	zero uint64
	// p is the spec the lanes were derived from: the fallback for NaN
	// elements, and for every element when exact is false.
	p     *Params
	exact bool
}

// two52 = 2^52, the magic constant of the add-subtract rounding trick:
// for 0 ≤ y < 2^52, (y + 2^52) − 2^52 is y rounded to the nearest
// integer, ties to even (the FP add rounds the real sum onto the ulp-1
// grid of [2^52, 2^53)) — math.RoundToEven without the call. A y ≥ 2^52,
// +Inf included, comes back ≥ 2^52, above every MaxMag a lane is built
// for, so the clip that follows lands where Value's does.
const two52 = float64(1 << 52)

// roundMagFast is that rounding as an integer, for a non-negative,
// non-NaN quotient: roundMag bit for bit below 2^52, MaxInt64 from there
// up (where roundMag returns the exact integer — both exceed every
// lane's MaxMag).
func roundMagFast(y float64) int64 {
	if y < two52 {
		return int64((y + two52) - two52)
	}
	return math.MaxInt64
}

const (
	signBit = uint64(1) << 63
	infBits = uint64(0x7FF) << 52
	// limitWalk bounds fineLimit's search. The starting point
	// (MaxMag+½)·Δ carries one rounding and the predicate's quotient one
	// more, so the limit is within a few ulps of it; a walk that has not
	// settled by then reports failure and the Kernel falls back to Value.
	limitWalk = 16
)

// usable reports whether a lane can be built from the subrange.
func (s SlotParams) usable() bool {
	return s.Delta > 0 && !math.IsInf(s.Delta, 1) && s.MaxMag >= 0 && s.MaxMag < 1<<52
}

// fineLimit returns the largest non-negative float64 a with
// roundMagFast(a/delta) <= maxMag, found by stepping math.Nextafter from
// (maxMag+½)·delta until a fits and its successor does not. The
// predicate is monotone in a, so that pair is unique.
func fineLimit(delta float64, maxMag int64) (float64, bool) {
	fits := func(a float64) bool { return roundMagFast(a/delta) <= maxMag }
	a := (float64(maxMag) + 0.5) * delta
	for i := 0; i < limitWalk; i++ {
		up := math.Nextafter(a, math.Inf(1))
		switch {
		case !fits(a):
			a = math.Nextafter(a, 0)
		case fits(up):
			a = up
		default:
			return a, true
		}
	}
	return 0, false
}

// Kernel compiles p for QuantizeSlice-style loops.
func (p *Params) Kernel() Kernel {
	k := Kernel{p: p, zero: math.Float64bits(p.Dequantize(Code{Slot: p.zeroSlot()}))}
	for sign, side := range [2][2]Slot{{FPos, CPos}, {FNeg, CNeg}} {
		f, c := p.Slots[side[0]], p.Slots[side[1]]
		if f.Enabled && !f.usable() || c.Enabled && !c.usable() {
			return k
		}
		lo, hi := lane{1, 0}, lane{1, 0}
		switch {
		case f.Enabled && c.Enabled:
			lim, ok := fineLimit(f.Delta, f.MaxMag)
			if !ok {
				return k
			}
			k.limit[sign] = math.Float64bits(lim)
			lo, hi = lane{f.Delta, float64(f.MaxMag)}, lane{c.Delta, float64(c.MaxMag)}
		case f.Enabled:
			lo = lane{f.Delta, float64(f.MaxMag)}
			hi = lo
		case c.Enabled:
			lo = lane{c.Delta, float64(c.MaxMag)}
			hi = lo
		}
		k.lanes[sign<<1], k.lanes[sign<<1|1] = lo, hi
	}
	k.exact = true
	return k
}

// Quantize fake-quantizes every element of xs into out (which may alias
// xs), bit-identical to p.Value element-wise. It panics if the lengths
// differ.
//
// Per element: sign and magnitude come from the bits; the lane from the
// sign and one integer compare of the magnitude bits with the side's
// limit; then one divide, the 2^52 add-subtract round-to-even, the clip
// to the lane's MaxMag, the multiply back, the sign ORed in, and a
// zero-magnitude result replaced by the canonical zero. Nothing branches
// on the data (the two ifs in the loop are register-to-register
// conditional moves). A NaN element comes out of that sequence as a NaN,
// and nothing else does, so the loop only tracks the largest magnitude
// bits it saw; when those say a NaN went by, the NaNs in out are
// rewritten to Value's answer, which does not depend on the payload.
//
// On amd64 CPUs with AVX2 a vector body (kernel_amd64.s) runs that
// sequence four elements at a time, lane by lane the same IEEE
// operations, over the longest multiple-of-4 prefix; the loop below
// finishes the tail and is the whole kernel everywhere else.
//
//quq:hotpath every activation site of every forward; no allocation, no data-dependent branch
func (k *Kernel) Quantize(out, xs []float64) {
	if len(out) != len(xs) {
		panic(check.Invariant("quant: quantize length mismatch"))
	}
	if !k.exact {
		for i, x := range xs {
			out[i] = k.p.Value(x)
		}
		return
	}
	n, nan := k.quantizeVector(out, xs)
	zero := k.zero
	var top uint64
	tail := out[n:]
	for i, x := range xs[n:] {
		b := math.Float64bits(x)
		mag := b &^ signBit
		sign := b >> 63
		if mag > top {
			top = mag
		}
		ln := &k.lanes[(sign<<1+(k.limit[sign]-mag)>>63)&3]
		r := min((math.Float64frombits(mag)/ln.delta+two52)-two52, ln.maxMag)
		v := math.Float64bits(r * ln.delta)
		res := v | (b ^ mag) // b^mag is the sign bit alone
		if v == 0 {
			res = zero
		}
		tail[i] = math.Float64frombits(res)
	}
	if nan || top > infBits {
		for i, v := range out {
			if v != v {
				out[i] = k.p.Value(v)
			}
		}
	}
}

// portableOnly, set only by tests, keeps Quantize off the vector body so
// the portable loop is covered on CPUs that have one.
var portableOnly bool

// SumSqErr returns acc + Σ (x − Q(x))² over xs, adding the terms to acc
// one by one in slice order — the running sum a per-element Value loop
// makes — with Q run through the kernel in abandonBlock-sized pieces on
// stack scratch. It is what calibration scores candidates with.
func (k *Kernel) SumSqErr(acc float64, xs []float64) float64 {
	var buf [abandonBlock]float64
	for len(xs) > 0 {
		blk := xs[:min(len(buf), len(xs))]
		xs = xs[len(blk):]
		q := buf[:len(blk)]
		k.Quantize(q, blk)
		for i, x := range blk {
			d := x - q[i]
			acc += d * d
		}
	}
	return acc
}
