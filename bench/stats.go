package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for an empty slice. xs is
// not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// supportedPercentile returns the highest of 50/90/99/99.9 that has at
// least ten samples beyond it among n, with that sample count — the
// rule the run report uses to decide which tail it may quote.
func supportedPercentile(n int) (p float64, beyond int) {
	p = 50
	for _, c := range []float64{90, 99, 99.9} {
		if beyondAt(n, c) >= 10 {
			p = c
		}
	}
	return p, beyondAt(n, p)
}

// beyondAt is how many of n samples lie beyond the p-th percentile.
func beyondAt(n int, p float64) int { return int(math.Round(float64(n)*(100-p))) / 100 }

// ms converts seconds to milliseconds.
func ms(seconds float64) float64 { return seconds * 1e3 }
