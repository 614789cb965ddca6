package quant

import (
	"math"
	"testing"

	"quq/internal/dist"
	"quq/internal/rng"
)

// exhaustive is the reference scorer: the whole MSE, bound ignored.
func exhaustive(xs []float64) func(*Params, float64) float64 {
	return func(c *Params, _ float64) float64 { return c.MSE(xs) }
}

// TestMSEBelowIsExact pins the early exit's contract at the sample
// level: against any bound, mseBelow lands on the same side of `< bound`
// as the full MSE, and below the bound it is the full MSE bit for bit.
// The inputs are the ones built to break a pruning scorer: nothing to
// score, one element, a bound equal to the score (a tie must lose), one
// ulp above it (must win), and a tensor whose error sits entirely in the
// last block, so every earlier look at the bound sees a running mean of
// zero.
func TestMSEBelowIsExact(t *testing.T) {
	p := ParamsForUniform(0.25, 6)
	late := make([]float64, 5*abandonBlock+17)
	for i := len(late) - 40; i < len(late); i++ {
		late[i] = 0.1 + 0.001*float64(i%7) // off-grid: the only error in the tensor
	}
	heavy := sampleFamily(dist.PreAddition, 1<<12, 11)
	for name, xs := range map[string][]float64{
		"empty":      nil,
		"one":        {0.3},
		"one-exact":  {0.25},
		"late-error": late,
		"heavy-tail": heavy,
		"block-edge": heavy[:2*abandonBlock],
	} {
		full := p.MSE(xs)
		for _, bound := range []float64{
			math.NaN(), math.Inf(1), math.Inf(-1), 0, full,
			math.Nextafter(full, math.Inf(1)), math.Nextafter(full, math.Inf(-1)),
			full / 2, full * 2, math.SmallestNonzeroFloat64,
		} {
			got := p.mseBelow(xs, bound)
			if (got < bound) != (full < bound) {
				t.Errorf("%s, bound %v: mseBelow %v and MSE %v fall on different sides", name, bound, got, full)
			}
			if full < bound && math.Float64bits(got) != math.Float64bits(full) {
				t.Errorf("%s, bound %v: mseBelow %v is not the full MSE %v", name, bound, got, full)
			}
		}
	}
}

// TestRefinePrunedPicksExhaustiveWinner: Refine (pruning scorer) returns
// the candidate an exhaustive scoring of the same grid returns, field
// for field, on random tensors of every mode and on the degenerate ones.
func TestRefinePrunedPicksExhaustiveWinner(t *testing.T) {
	opts := DefaultRefineOptions()
	opts.MaxSamples = 0
	check := func(name string, xs []float64, bits int) {
		t.Helper()
		p := Calibrate(xs, bits, DefaultPRAOptions())
		pruned := Refine(xs, p, opts)
		want := RefineScored(p, opts, exhaustive(xs))
		if *pruned != *want {
			t.Errorf("%s: pruned search chose %v, exhaustive %v", name, pruned, want)
		}
	}
	seedSrc := rng.New(271828)
	for trial := 0; trial < 30; trial++ {
		xs, bits := randomMixtureTensor(rng.New(seedSrc.Uint64()))
		check("mixture", xs, bits)
	}
	check("one element", []float64{0.7}, 6)
	check("all equal", []float64{0.5, 0.5, 0.5, 0.5}, 4)
	check("all zero", make([]float64, 3*abandonBlock), 6)
	// The empty tensor has no range to calibrate; the search itself must
	// still keep the incumbent when every candidate scores 0.
	u := ParamsForUniform(1, 6)
	if got := Refine(nil, u, opts); got != u {
		t.Errorf("empty sample: Refine replaced the incumbent with %v", got)
	}
}

// TestRefineScoredTiesKeepIncumbent: a candidate must score strictly
// below the best so far. With every score equal the incumbent survives;
// with a scorer that answers its bound back — the least an abandoning
// scorer may return — it survives too.
func TestRefineScoredTiesKeepIncumbent(t *testing.T) {
	p := ParamsForUniform(0.5, 6)
	opts := DefaultRefineOptions()
	if got := RefineScored(p, opts, func(*Params, float64) float64 { return 1 }); got != p {
		t.Errorf("all-equal scores: search moved off the incumbent to %v", got)
	}
	calls := 0
	got := RefineScored(p, opts, func(_ *Params, bound float64) float64 {
		if calls++; calls == 1 {
			if !math.IsNaN(bound) {
				t.Errorf("incumbent scored against bound %v, want none (NaN)", bound)
			}
			return 1
		}
		return bound
	})
	if got != p {
		t.Errorf("scorer returning its bound: search moved off the incumbent to %v", got)
	}
	if want := 1 + len(opts.ScaleGrid)*len(opts.FineShifts); calls != want {
		t.Errorf("scored %d candidates, want %d", calls, want)
	}
}
