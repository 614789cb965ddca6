package quant

import (
	"fmt"
	"math"
	"testing"

	"quq/internal/cpuid"
	"quq/internal/rng"
)

// bothBodies runs check twice: once on the body Quantize picks on this
// CPU, and once with the vector body switched off, so the portable loop
// stays covered on amd64 too. body names the pass for failure messages.
func bothBodies(check func(body string)) {
	defer func() { portableOnly = false }()
	for _, off := range []bool{false, true} {
		portableOnly = off
		body := "default body"
		if off {
			body = "portable loop"
		}
		check(body)
	}
}

// TestVectorBodyMatchesPortableLoop runs the vector body and the
// portable loop on the same Kernel and demands the same bits. Every
// length from 0 to 67 is run — no vector iteration, whole vector
// iterations, and each of the three tail lengths behind them — and every
// edgeInputs and boundaryInputs value is placed in
// each of the four lanes in turn, among random fill, both into a
// separate destination and in place. On a CPU without the vector body
// both passes run the portable loop and the test is vacuous.
func TestVectorBodyMatchesPortableLoop(t *testing.T) {
	if cpuid.HasAVX2 {
		t.Log("comparing the AVX2 vector body with the portable loop")
	} else {
		t.Log("no vector body on this CPU: both passes run the portable loop")
	}
	src := rng.New(33)
	params := map[string]*Params{
		"pra-two-sided": PRA(laplace(src, 4096), 6, DefaultPRAOptions()),
		"subnormal-delta": {Bits: 4, Mode: ModeA, Slots: [4]SlotParams{
			{true, 5e-324, 4}, {true, 5e-324, 3}, {true, 4e-323, 4}, {true, 2e-323, 3}}},
		"huge-delta": {Bits: 4, Mode: ModeA, Slots: [4]SlotParams{
			{true, 1e307, 20}, {true, 1e307, 19}, {true, 8e307, 4}, {true, 4e307, 3}}},
	}
	for _, bits := range []int{3, 6} {
		for name, p := range modeParams(bits, 0.0437) {
			params[fmt.Sprintf("mode-%s/b%d", name, bits)] = p
		}
	}
	for name, p := range params {
		k := p.Kernel()
		if !k.exact {
			t.Fatalf("%s: lanes not derived for a well-formed quantizer %v", name, p)
		}
		vals := append(append([]float64(nil), edgeInputs...), boundaryInputs(p)...)
		for n := 0; n <= 67; n++ {
			for lane := 0; lane < 4; lane++ {
				// slots counts the indices below n in this lane; each call
				// places the next slots values of vals there.
				slots := max((n-lane+3)/4, 1)
				for c := 0; c < len(vals); c += slots {
					xs := laplace(src, n)
					for s, i := 0, lane; i < n; s, i = s+1, i+4 {
						xs[i] = vals[(c+s)%len(vals)]
					}
					compareBodies(t, name, &k, xs)
				}
			}
		}
	}
}

// laplace returns n Laplace(1) samples with one in eight replaced by 0.
func laplace(src *rng.Source, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		if src.Float64() >= 0.125 {
			xs[i] = src.Laplace(1)
		}
	}
	return xs
}

// compareBodies quantizes xs with the default body and with the portable
// loop, separately and aliased, and fails on the first differing bit.
func compareBodies(t *testing.T, name string, k *Kernel, xs []float64) {
	t.Helper()
	var runs [][2][]float64 // per body: {separate, aliased}
	bothBodies(func(string) {
		out := make([]float64, len(xs))
		k.Quantize(out, xs)
		in := append([]float64(nil), xs...)
		k.Quantize(in, in)
		runs = append(runs, [2][]float64{out, in})
	})
	vec, port := runs[0], runs[1]
	for i, x := range xs {
		w := math.Float64bits(port[0][i])
		if math.Float64bits(port[1][i]) != w || math.Float64bits(vec[0][i]) != w || math.Float64bits(vec[1][i]) != w {
			t.Fatalf("%s, n=%d, i=%d: x=%v [%016x]: vector body %016x (aliased %016x), portable loop %016x (aliased %016x)",
				name, len(xs), i, x, math.Float64bits(x), math.Float64bits(vec[0][i]), math.Float64bits(vec[1][i]),
				w, math.Float64bits(port[1][i]))
		}
	}
}
