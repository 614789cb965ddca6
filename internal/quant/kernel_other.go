//go:build !amd64

package quant

// quantizeVector is the amd64 vector body's stand-in: it quantizes
// nothing, so Quantize's portable loop takes every element.
func (k *Kernel) quantizeVector(out, xs []float64) (n int, nan bool) { return 0, false }
