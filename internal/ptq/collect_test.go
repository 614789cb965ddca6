package ptq

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"quq/internal/data"
	"quq/internal/rng"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// observeReference is observe as it read before it walked rows: one
// flat loop over the elements, the channel as i % cols.
func (s *SiteStats) observeReference(x *tensor.Tensor) {
	d := x.Data()
	cols := x.Dim(x.Rank() - 1)
	if s.LastDim == 0 {
		s.LastDim = cols
		s.ChanAbsMax = make([]float64, cols)
		s.ChanSqSum = make([]float64, cols)
	}
	trackChans := cols == s.LastDim
	for i, v := range d {
		if s.seen == 0 || v < s.Min {
			s.Min = v
		}
		if s.seen == 0 || v > s.Max {
			s.Max = v
		}
		if trackChans {
			ch := i % cols
			if a := math.Abs(v); a > s.ChanAbsMax[ch] {
				s.ChanAbsMax[ch] = a
			}
			s.ChanSqSum[ch] += v * v
			s.chanCount++
		}
		s.seen++
		ch := int32(-1)
		if trackChans {
			ch = int32(i % cols)
		}
		if len(s.Samples) < s.cap {
			s.Samples = append(s.Samples, v)
			s.SampleChans = append(s.SampleChans, ch)
		} else if j := s.src.Intn(int(s.seen)); j < s.cap {
			s.Samples[j] = v
			s.SampleChans[j] = ch
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// assertSameStats compares every SiteStats field bit for bit, and the
// reservoir sources by their next draw (the same number of Intn calls).
func assertSameStats(t *testing.T, what string, got, want *SiteStats) {
	t.Helper()
	switch {
	case !sameBits(got.Samples, want.Samples):
		t.Fatalf("%s: Samples differ", what)
	case !slices.Equal(got.SampleChans, want.SampleChans):
		t.Fatalf("%s: SampleChans differ", what)
	case !sameBits([]float64{got.Min, got.Max}, []float64{want.Min, want.Max}):
		t.Fatalf("%s: Min, Max = %v, %v, want %v, %v", what, got.Min, got.Max, want.Min, want.Max)
	case got.LastDim != want.LastDim:
		t.Fatalf("%s: LastDim %d, want %d", what, got.LastDim, want.LastDim)
	case !sameBits(got.ChanAbsMax, want.ChanAbsMax):
		t.Fatalf("%s: ChanAbsMax differ", what)
	case !sameBits(got.ChanSqSum, want.ChanSqSum):
		t.Fatalf("%s: ChanSqSum differ", what)
	case got.chanCount != want.chanCount:
		t.Fatalf("%s: chanCount %d, want %d", what, got.chanCount, want.chanCount)
	case got.seen != want.seen:
		t.Fatalf("%s: seen %d, want %d", what, got.seen, want.seen)
	case got.src.Uint64() != want.src.Uint64():
		t.Fatalf("%s: reservoir sources drew differently", what)
	}
}

// TestObserveMatchesReference folds the same tensor sequences through
// observe and the flat-loop reference: reservoirs left part-filled and
// ones overwritten many times, NaN as the first element and later,
// and tensors whose width is not LastDim (no channel tracking).
func TestObserveMatchesReference(t *testing.T) {
	src := rng.New(7)
	randT := func(rows, cols int) *tensor.Tensor {
		x := tensor.New(rows, cols)
		for i := range x.Data() {
			x.Data()[i] = src.Gauss(0, 1)
		}
		return x
	}
	nanFirst := randT(3, 8)
	nanFirst.Data()[0] = math.NaN()
	nanLater := randT(3, 8)
	nanLater.Data()[13] = math.NaN()
	cases := []struct {
		name    string
		cap     int
		tensors []*tensor.Tensor
	}{
		{"part-filled", 1000, []*tensor.Tensor{randT(4, 16), randT(7, 16)}},
		{"exactly-full", 64, []*tensor.Tensor{randT(4, 16)}},
		{"full", 50, []*tensor.Tensor{randT(9, 16), randT(20, 16), randT(33, 16)}},
		{"odd-width", 30, []*tensor.Tensor{randT(5, 7), randT(9, 7)}},
		{"nan-first", 10, []*tensor.Tensor{nanFirst, randT(5, 8)}},
		{"nan-later", 10, []*tensor.Tensor{nanLater, randT(5, 8)}},
		{"width-changes", 40, []*tensor.Tensor{randT(6, 12), randT(5, 7), randT(2, 12), randT(3, 4)}},
		{"rank-3", 100, []*tensor.Tensor{tensor.FromSlice(randT(6, 10).Data(), 2, 3, 10), randT(4, 10)}},
		{"empty-first", 20, []*tensor.Tensor{tensor.New(0, 6), randT(4, 6)}},
	}
	for _, c := range cases {
		got := &SiteStats{cap: c.cap, src: rng.New(99)}
		want := &SiteStats{cap: c.cap, src: rng.New(99)}
		for i, x := range c.tensors {
			got.observe(x)
			want.observeReference(x)
			assertSameStats(t, fmt.Sprintf("%s after tensor %d", c.name, i), got, want)
		}
	}
}

// collectPerImage is Collect as it read before it stacked chunks — one
// lone forward per image, every site observed inline on the forward's
// goroutine as the tap is called — walked once over images with one
// reservoir set per cap in caps. want[c][j] holds caps[c]'s statistics
// of images[:ns[j]], finalized: a copy of the walk's state after its
// first ns[j] images.
func collectPerImage(m vit.Model, images []*tensor.Tensor, caps, ns []int) (want [][]map[string]*SiteStats) {
	stats := make([]map[string]*SiteStats, len(caps))
	want = make([][]map[string]*SiteStats, len(caps))
	for c := range caps {
		stats[c] = make(map[string]*SiteStats)
		want[c] = make([]map[string]*SiteStats, len(ns))
	}
	tap := func(site vit.Site, x *tensor.Tensor) *tensor.Tensor {
		key := site.Key()
		for c, maxSamples := range caps {
			if maxSamples <= 0 {
				maxSamples = 32768
			}
			st, ok := stats[c][key]
			if !ok {
				st = &SiteStats{Site: site, cap: maxSamples, src: rng.New(hashKey(key))}
				stats[c][key] = st
			}
			st.observe(x)
		}
		return x
	}
	for i, img := range images {
		m.Forward(img, vit.ForwardOpts{Tap: tap})
		for j, n := range ns {
			if n != i+1 {
				continue
			}
			for c := range caps {
				want[c][j] = make(map[string]*SiteStats)
				for key, st := range stats[c] {
					snap := *st
					snap.Samples = slices.Clone(st.Samples)
					snap.SampleChans = slices.Clone(st.SampleChans)
					snap.ChanAbsMax = slices.Clone(st.ChanAbsMax)
					snap.ChanSqSum = slices.Clone(st.ChanSqSum)
					src := *st.src
					snap.src = &src
					snap.finalize()
					want[c][j][key] = &snap
				}
			}
		}
	}
	return want
}

// TestCollectStackedMatchesPerImage holds Collect — stacked chunks,
// observed off the forward's goroutine — to the per-image reference,
// every SiteStats field bit for bit, for every architecture: image
// counts on both sides of each chunk edge, and reservoirs that fill in
// mid-chunk (100 samples) or never (the default cap). check.sh runs it
// at GOMAXPROCS 1, 2 and 4, and under the race detector.
func TestCollectStackedMatchesPerImage(t *testing.T) {
	cfgs := []vit.Config{vit.ViTNano, vit.ViTSmall, vit.DeiTSmall, vit.SwinTiny}
	if raceEnabled {
		// The hand-off is the same code whatever the model, and the
		// detector makes the large models ten times dearer.
		cfgs = cfgs[:1]
	}
	caps, ns := []int{0, 100}, []int{1, 3, 4, 5, 32}
	for _, cfg := range cfgs {
		t.Run(cfg.Name, func(t *testing.T) {
			m := vit.New(cfg, 5)
			calib := data.CalibrationSet(cfg, ns[len(ns)-1], 3)
			want := collectPerImage(m, calib, caps, ns)
			for c, maxSamples := range caps {
				for j, n := range ns {
					what := fmt.Sprintf("n=%d maxSamples=%d", n, maxSamples)
					got := Collect(m, calib[:n], maxSamples)
					if len(got) != len(want[c][j]) {
						t.Fatalf("%s: %d sites, want %d", what, len(got), len(want[c][j]))
					}
					for key, w := range want[c][j] {
						g, ok := got[key]
						if !ok {
							t.Fatalf("%s: site %s missing", what, key)
						}
						if g.Site != w.Site {
							t.Fatalf("%s: site %s is %v, want %v", what, key, g.Site, w.Site)
						}
						assertSameStats(t, what+" "+key, g, w)
					}
				}
			}
		})
	}
}
