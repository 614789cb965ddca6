// Package sfu implements the special function units of the QUA
// accelerator (§4.2): integer-only LayerNorm, Softmax and GELU kernels in
// the style of I-BERT/I-ViT (the paper's references [5, 6]), fed by a QUB
// decoder so the data flow never leaves the quantized domain.
//
// The paper streamlines its SFUs to "perform the same functions as the
// accelerator designed for uniform quantization in [5, 6]" after a QUB
// decode; this package provides those functions. All kernels operate on
// dyadic fixed-point integers (value = v·2⁻ᶠ with F fraction bits) using
// only additions, multiplications, shifts and comparisons — no floating
// point — and are verified against the float reference implementations in
// the package tests.
package sfu

import (
	"math"

	"quq/internal/check"
)

// F is the fixed-point fraction width used by the kernels: values are
// represented as v·2⁻ᶠ. 16 bits keeps int64 intermediates comfortably
// within range for transformer activations.
const F = 16

// One is the fixed-point representation of 1.0.
const One = int64(1) << F

// ToFixed converts a float to fixed point (round to nearest).
func ToFixed(x float64) int64 {
	return int64(math.RoundToEven(x * float64(One)))
}

// log2(e) ≈ 1.442695 in fixed point.
var log2e = ToFixed(math.Log2E)

// ln(2) ≈ 0.693147 in fixed point.
var ln2 = ToFixed(math.Ln2)

// mulFix multiplies two fixed-point values.
func mulFix(a, b int64) int64 {
	return (a * b) >> F
}

// Exp2Neg computes 2^x for x ≤ 0 in fixed point: the exponent is split
// into its integer part (a right shift) and fractional part r ∈ [0, 1),
// with 2^r approximated by the quadratic 1 + r·ln2 + (r·ln2)²/2 — a
// shift-and-multiply datapath. Inputs below the representable range
// return 0. Positive inputs are clamped to 0 (result 1).
func Exp2Neg(x int64) int64 {
	if x > 0 {
		x = 0
	}
	q := (-x) >> F // integer part of the magnitude
	if q >= 62 {
		return 0
	}
	r := x + int64(q)<<F // fractional remainder in (−1, 0]
	// 2^r = e^(r·ln2), with the exponential expanded to fourth order —
	// worst-case relative error ≈ 0.13% over r ∈ (−1, 0].
	t := mulFix(r, ln2)
	t2 := mulFix(t, t)
	poly := One + t + t2/2 + mulFix(t2, t)/6 + mulFix(t2, t2)/24
	if poly < 0 {
		poly = 0
	}
	return poly >> q
}

// Softmax computes an integer softmax over the fixed-point logits xs,
// writing fixed-point probabilities into out (which may alias xs). The
// max-subtraction, exponentials and normalization all run in integer
// arithmetic; the division is one integer divide per element, which
// hardware implements with the shared reciprocal unit.
func Softmax(out, xs []int64) {
	if len(out) != len(xs) {
		panic(check.Invariant("sfu: Softmax length mismatch"))
	}
	if len(xs) == 0 {
		return
	}
	maxV := xs[0]
	for _, v := range xs[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum int64
	for i, v := range xs {
		e := Exp2Neg(mulFix(v-maxV, log2e))
		out[i] = e
		sum += e
	}
	if sum == 0 {
		// Degenerate all-underflow row: put the mass on the maximum.
		for i, v := range xs {
			if v == maxV {
				out[i] = One
			} else {
				out[i] = 0
			}
		}
		return
	}
	for i := range out {
		out[i] = (out[i] << F) / sum
	}
}

// Sigmoid computes σ(x) in fixed point via the exponential identity
// σ(x) = 2^(x·log2 e) / (1 + 2^(x·log2 e)) for x ≤ 0 and symmetry for
// x > 0.
func Sigmoid(x int64) int64 {
	neg := x > 0
	if neg {
		x = -x
	}
	e := Exp2Neg(mulFix(x, log2e))
	s := (e << F) / (One + e)
	if neg {
		return One - s
	}
	return s
}

// sigmoidGain is 1.702 in fixed point: the sigmoid-approximation constant
// of GELU(x) ≈ x·σ(1.702x) (the I-ViT ShiftGELU formulation).
var sigmoidGain = ToFixed(1.702)

// GELU computes the sigmoid approximation of GELU in fixed point.
func GELU(x int64) int64 {
	return mulFix(x, Sigmoid(mulFix(sigmoidGain, x)))
}

// ISqrt returns floor(sqrt(v)) for a non-negative integer using Newton's
// method — the integer square root the LayerNorm unit needs.
func ISqrt(v int64) int64 {
	if v < 0 {
		panic(check.Invariant("sfu: ISqrt of negative value"))
	}
	if v < 2 {
		return v
	}
	x := int64(1) << ((bitsOf(v) + 1) / 2) // initial guess ≥ sqrt(v)
	for {
		y := (x + v/x) / 2
		if y >= x {
			return x
		}
		x = y
	}
}

func bitsOf(v int64) uint {
	n := uint(0)
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// LayerNorm normalizes one row of fixed-point values in place and applies
// the affine parameters (also fixed point): out = (x−μ)/σ·γ + β. The
// variance and square root run entirely in integer arithmetic.
func LayerNorm(out, xs, gamma, beta []int64) {
	n := int64(len(xs))
	if n == 0 {
		return
	}
	if len(out) != len(xs) || len(gamma) != len(xs) || len(beta) != len(xs) {
		panic(check.Invariant("sfu: LayerNorm length mismatch"))
	}
	var sum int64
	for _, v := range xs {
		sum += v
	}
	mean := sum / n
	var ss int64
	for _, v := range xs {
		d := v - mean
		// Drop F fraction bits before squaring to keep int64 headroom;
		// reintroduced via the sqrt's scale below.
		ss += (d * d) >> F
	}
	variance := ss / n // fixed point with F fraction bits
	// σ in fixed point: sqrt(var·2ᶠ) since sqrt halves the exponent.
	sigma := ISqrt(variance << F)
	if sigma == 0 {
		sigma = 1
	}
	for i, v := range xs {
		norm := ((v - mean) << F) / sigma
		out[i] = mulFix(norm, gamma[i]) + beta[i]
	}
}
