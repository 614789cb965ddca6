// Package mathx collects the small numerical helpers shared by the model
// stack, the synthetic data generators and the quantizers: activation
// functions and stable softmax, with the forward's memoized slice kernels.
package mathx

import "math"

// Gelu is the Gaussian error linear unit, x·Φ(x), computed with the exact
// erf formulation (the paper's ViTs use exact GELU, not the tanh
// approximation).
func Gelu(x float64) float64 {
	return 0.5 * x * (1 + math.Erf(x/math.Sqrt2))
}

// SoftmaxInPlace replaces xs with softmax(xs), using the max-subtraction
// trick for numerical stability. An empty slice is left unchanged.
func SoftmaxInPlace(xs []float64) {
	if len(xs) == 0 {
		return
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	var sum float64
	for i, v := range xs {
		e := math.Exp(v - m)
		xs[i] = e
		sum += e
	}
	for i := range xs {
		xs[i] /= sum
	}
}
