package quant

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"quq/internal/check"
	"quq/internal/dist"
	"quq/internal/rng"
)

// praReference is PRA as it read before it selected order statistics:
// both sides' clamped magnitudes fully sorted with sort.Float64s, then
// the same praCore/praOneSided dispatch. FuzzPRA holds PRA to it.
func praReference(xs []float64, bits int, opts PRAOptions) *Params {
	var neg, pos []float64
	for _, v := range xs {
		m := math.Abs(v)
		if m < praMagFloor {
			continue
		}
		if m > praMagCeil {
			m = praMagCeil
		}
		if v > 0 {
			pos = append(pos, m)
		} else {
			neg = append(neg, m)
		}
	}
	sort.Float64s(neg)
	sort.Float64s(pos)
	switch {
	case len(neg) == 0 && len(pos) == 0:
		return ParamsForUniform(1, bits)
	case len(neg) == 0:
		return praOneSided(pos, bits, opts, false)
	case len(pos) == 0:
		return praOneSided(neg, bits, opts, true)
	}
	return praCore(neg, pos, bits, opts, opts.QInit)
}

// TestPRAMatchesFullSort holds PRA to praReference on every Figure 3
// family at every bit-width, under option sets whose quantile walk stops
// at once, runs to q_A, or reaches far below it (λ_A = 64 keeps both
// ratios under it, so the walk goes all the way down).
func TestPRAMatchesFullSort(t *testing.T) {
	optSets := map[string]PRAOptions{
		"default":   DefaultPRAOptions(),
		"no-switch": {LambdaA: 4, QInit: 0.99, QAccept: 0.95, QStep: 0.01, DisableModeSwitch: true},
		"deep-walk": {LambdaA: 64, QInit: 0.999, QAccept: 0.5, QStep: 0.013},
		"to-zero":   {LambdaA: 64, QInit: 1, QAccept: 0, QStep: 0.125},
	}
	for _, fam := range dist.Families {
		for _, n := range []int{3, 50, 1 << 12} {
			xs := sampleFamily(fam, n, uint64(n))
			for name, opts := range optSets {
				for b := 3; b <= 8; b++ {
					if got, want := PRA(xs, b, opts), praReference(xs, b, opts); !reflect.DeepEqual(got, want) {
						t.Fatalf("%v n=%d %s b=%d: PRA %v, over fully sorted magnitudes %v", fam, n, name, b, got, want)
					}
				}
			}
		}
	}
}

// sortFromInputs are the slices sortFrom is held to sort.Float64s on:
// the short ones, ties, NaNs, infinities, presorted and adversarial
// orders, and calibration-sized random data. None mixes -0 with +0,
// which sort.Float64s leaves in no defined order.
func sortFromInputs() map[string][]float64 {
	src := rng.New(36)
	gen := func(n int, f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	nan := math.NaN()
	return map[string][]float64{
		"empty":        {},
		"one":          {2.5},
		"two":          {3, 1},
		"two-nan":      {1, nan},
		"all-equal":    gen(1000, func(int) float64 { return 0.75 }),
		"three-vals":   gen(2000, func(int) float64 { return float64(src.Intn(3)) }),
		"few-distinct": gen(4999, func(int) float64 { return float64(src.Intn(40)) * 0.125 }),
		"all-nan":      gen(300, func(int) float64 { return nan }),
		"nan-heavy":    gen(1000, func(i int) float64 { return []float64{nan, nan, nan, src.Gauss(0, 1)}[i%4] }),
		"nan-sparse":   gen(1000, func(i int) float64 { return []float64{nan, src.Gauss(0, 1)}[min(i%97, 1)] }),
		"inf":          gen(500, func(i int) float64 { return []float64{math.Inf(1), math.Inf(-1), src.Gauss(0, 1)}[i%3] }),
		"ascending":    gen(3000, func(i int) float64 { return float64(i) }),
		"descending":   gen(3000, func(i int) float64 { return float64(-i) }),
		"organ-pipe":   gen(3000, func(i int) float64 { return float64(min(i, 3000-i)) }),
		"sawtooth":     gen(3000, func(i int) float64 { return float64(i % 17) }),
		"gauss":        gen(5000, func(int) float64 { return src.Gauss(0, 1) }),
		"abs-laplace":  gen(5000, func(int) float64 { return math.Abs(src.Laplace(1)) }),
	}
}

// TestSortFromMatchesSort: at every index ≥ k, sortFrom leaves what a
// full sort.Float64s puts there, bit for bit, and the slice stays a
// permutation of its input — at every k that matters, with the default
// depth budget and with budgets so small the sort fallback takes over.
func TestSortFromMatchesSort(t *testing.T) {
	for name, in := range sortFromInputs() {
		n := len(in)
		want := append([]float64(nil), in...)
		sort.Float64s(want)
		ks := []int{0}
		if n > 0 {
			ks = append(ks, 1, n/2, int(math.Floor(0.95*float64(n-1))), n-2, n-1)
		}
		for _, k := range ks {
			if k < 0 || (n > 0 && k >= n) {
				continue
			}
			for _, budget := range []int{3 * bits.Len(uint(n)), 0, 1, 2} {
				got := append([]float64(nil), in...)
				sortFrom(got, k, budget)
				label := fmt.Sprintf("%s n=%d k=%d budget=%d", name, n, k, budget)
				for i := k; i < n; i++ {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: [%d] = %v, sort.Float64s puts %v", label, i, got[i], want[i])
					}
				}
				sort.Float64s(got)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: not a permutation of the input (sorted [%d] = %v, want %v)", label, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPartition3 checks the three-way split on ties and on a pivot that
// is the minimum or the maximum, and samplePivot's pick on each.
func TestPartition3(t *testing.T) {
	for _, xs := range [][]float64{
		{1, 1, 1, 1},
		{5, 1, 9, 1, 5, 9, 5},
		{1, 2, 3, 4, 5, 6},
		{2, 1, 1, 1, 1, 1, 2},
		{3, 9, 9, 9, 9, 9, 9},
	} {
		for _, p := range append(append([]float64(nil), xs...), samplePivot(xs, len(xs)-1)) {
			xs := append([]float64(nil), xs...)
			lt, gt := partition3(xs, p)
			if lt >= gt {
				t.Fatalf("%v: empty run of pivot %v [%d, %d)", xs, p, lt, gt)
			}
			for i, v := range xs {
				if (i < lt && !(v < p)) || (i >= lt && i < gt && v != p) || (i >= gt && !(v > p)) {
					t.Fatalf("%v: [%d] = %v out of place around pivot %v at [%d, %d)", xs, i, v, p, lt, gt)
				}
			}
		}
	}
}

// mustInvariantPanic runs f and fails unless it panics with a
// check.InvariantError.
func mustInvariantPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		err, _ := r.(error)
		var ie *check.InvariantError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: recovered %v, want a check.InvariantError", what, r)
		}
	}()
	f()
}

// praOptsData is small two-sided data; PRA validates its options at
// entry, whatever the data.
var praOptsData = []float64{-3, -1, -0.5, 0.25, 0.5, 2, 8}

func TestPRARejectsNonPositiveQStep(t *testing.T) {
	for _, step := range []float64{0, -0.01, 1e-30} {
		opts := DefaultPRAOptions()
		opts.QStep = step
		mustInvariantPanic(t, fmt.Sprintf("QStep %v", step), func() { PRA(praOptsData, 6, opts) })
	}
	// Without mode switching the walk never steps, so QStep is unused.
	opts := DefaultPRAOptions()
	opts.QStep, opts.DisableModeSwitch = 0, true
	if err := PRA(praOptsData, 6, opts).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPRARejectsQInitOutsideUnitInterval(t *testing.T) {
	for _, qInit := range []float64{-0.01, 1.01, math.NaN(), math.Inf(1)} {
		for _, noSwitch := range []bool{false, true} {
			opts := DefaultPRAOptions()
			opts.QInit, opts.DisableModeSwitch = qInit, noSwitch
			mustInvariantPanic(t, fmt.Sprintf("QInit %v DisableModeSwitch %v", qInit, noSwitch), func() { PRA(praOptsData, 6, opts) })
		}
	}
}

func TestPRARejectsNaNQStep(t *testing.T) {
	opts := DefaultPRAOptions()
	opts.QStep = math.NaN()
	mustInvariantPanic(t, "QStep NaN", func() { PRA(praOptsData, 6, opts) })
}

func TestPRARejectsWalkBelowZero(t *testing.T) {
	opts := DefaultPRAOptions()
	opts.QInit, opts.QStep, opts.QAccept = 0.3, 0.2, 0.05 // 0.3, 0.1, then -0.1
	mustInvariantPanic(t, "walk below 0", func() { PRA(praOptsData, 6, opts) })
}

// TestPRAQMinFollowsTheWalk: praQMin lands on the q praCore's last
// relaxation reads, float step by float step.
func TestPRAQMinFollowsTheWalk(t *testing.T) {
	opts := DefaultPRAOptions()
	want := 0.99 - 0.01 - 0.01 - 0.01 - 0.01
	if got := praQMin(opts); got != want {
		t.Fatalf("default walk ends at %v, praCore reads down to %v", got, want)
	}
	opts.DisableModeSwitch = true
	if got := praQMin(opts); got != 0.99 {
		t.Fatalf("DisableModeSwitch walk ends at %v, want QInit", got)
	}
}
