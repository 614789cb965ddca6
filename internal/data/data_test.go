package data

import (
	"math"
	"testing"

	"quq/internal/rng"
	"quq/internal/vit"
)

func TestPatternDatasetBalanced(t *testing.T) {
	ds := PatternSamples(1, 16, 100, 1)
	counts := make([]int, NumPatternClasses)
	for _, s := range ds {
		if s.Label < 0 || s.Label >= NumPatternClasses {
			t.Fatalf("label %d out of range", s.Label)
		}
		counts[s.Label]++
		if sh := s.Image.Shape(); sh[0] != 1 || sh[1] != 16 || sh[2] != 16 {
			t.Fatalf("image shape %v", sh)
		}
	}
	for c, n := range counts {
		if n != 10 {
			t.Fatalf("class %d has %d samples, want 10", c, n)
		}
	}
}

func TestPatternDatasetDeterministic(t *testing.T) {
	a := PatternSamples(1, 16, 20, 7)
	b := PatternSamples(1, 16, 20, 7)
	for i := range a {
		for j, v := range a[i].Image.Data() {
			if v != b[i].Image.Data()[j] {
				t.Fatal("dataset not deterministic")
			}
		}
	}
}

func TestPatternClassesDistinct(t *testing.T) {
	// Mean inter-class L2 distance must exceed mean intra-class distance
	// — otherwise the classification task is unlearnable.
	const size = 16
	src := rng.New(3)
	perClass := 8
	images := make([][][]float64, NumPatternClasses)
	for c := 0; c < NumPatternClasses; c++ {
		for i := 0; i < perClass; i++ {
			images[c] = append(images[c], PatternImage(c, size, src).Data())
		}
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	var intra, inter float64
	var nIntra, nInter int
	for c := 0; c < NumPatternClasses; c++ {
		for i := 0; i < perClass; i++ {
			for j := i + 1; j < perClass; j++ {
				intra += dist(images[c][i], images[c][j])
				nIntra++
			}
			for c2 := c + 1; c2 < NumPatternClasses; c2++ {
				inter += dist(images[c][i], images[c2][i])
				nInter++
			}
		}
	}
	intra /= float64(nIntra)
	inter /= float64(nInter)
	if inter <= intra {
		t.Fatalf("inter-class distance %v not above intra-class %v", inter, intra)
	}
}

func TestPatternSamplesMultiChannel(t *testing.T) {
	samples := PatternSamples(3, 32, 30, 5)
	if len(samples) != 30 {
		t.Fatalf("got %d samples", len(samples))
	}
	for _, s := range samples {
		if sh := s.Image.Shape(); sh[0] != 3 || sh[1] != 32 {
			t.Fatalf("shape %v", sh)
		}
	}
	// Channels carry the same pattern up to gain: high cross-channel
	// correlation within an image.
	img := samples[0].Image
	n := 32 * 32
	c0 := img.Data()[:n]
	c1 := img.Data()[n : 2*n]
	var dot, n0, n1 float64
	for i := range c0 {
		dot += c0[i] * c1[i]
		n0 += c0[i] * c0[i]
		n1 += c1[i] * c1[i]
	}
	if corr := dot / math.Sqrt(n0*n1); corr < 0.8 {
		t.Fatalf("cross-channel correlation %v, want pattern shared across channels", corr)
	}
}

func TestImagesGeometryAndNormalization(t *testing.T) {
	imgs := Images(vit.ViTSmall, 5, 9)
	if len(imgs) != 5 {
		t.Fatalf("got %d images", len(imgs))
	}
	for _, img := range imgs {
		if sh := img.Shape(); sh[0] != 3 || sh[1] != 32 || sh[2] != 32 {
			t.Fatalf("shape %v", sh)
		}
		if m := img.Mean(); math.Abs(m) > 1e-9 {
			t.Fatalf("mean %v, want standardized", m)
		}
		if s := img.Std(); math.Abs(s-1) > 1e-9 {
			t.Fatalf("std %v, want 1", s)
		}
	}
}

func TestCalibrationDisjointFromEval(t *testing.T) {
	calib := CalibrationSet(vit.ViTNano, 3, 42)
	eval := Images(vit.ViTNano, 3, 42)
	same := 0
	for i := range calib {
		if calib[i].Data()[0] == eval[i].Data()[0] {
			same++
		}
	}
	if same == len(calib) {
		t.Fatal("calibration images identical to eval images at the same seed")
	}
}

func TestPatternImageAllClassesFinite(t *testing.T) {
	src := rng.New(11)
	for c := 0; c < NumPatternClasses; c++ {
		img := PatternImage(c, 16, src)
		for _, v := range img.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("class %d produced non-finite pixel", c)
			}
		}
	}
}

func TestImageFromFlat(t *testing.T) {
	cfg := vit.ViTNano // 1×16×16
	n := cfg.Channels * cfg.ImageSize * cfg.ImageSize
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i) / float64(n)
	}
	img, err := ImageFromFlat(cfg, vals)
	if err != nil {
		t.Fatal(err)
	}
	if img.Dim(0) != cfg.Channels || img.Dim(1) != cfg.ImageSize || img.Dim(2) != cfg.ImageSize {
		t.Fatalf("shape %v", img.Shape())
	}
	if img.At(0, 0, 1) != vals[1] {
		t.Fatal("layout mismatch: not channel-major row-major")
	}
	// The tensor takes ownership of the request buffer: a view, no copy.
	vals[1] = 99
	if img.At(0, 0, 1) != 99 {
		t.Fatal("ImageFromFlat copied the caller's slice instead of taking it")
	}

	if _, err := ImageFromFlat(cfg, vals[:n-1]); err == nil {
		t.Fatal("short slice accepted")
	}
	vals[3] = math.NaN()
	if _, err := ImageFromFlat(cfg, vals); err == nil {
		t.Fatal("NaN pixel accepted")
	}
	vals[3] = math.Inf(1)
	if _, err := ImageFromFlat(cfg, vals); err == nil {
		t.Fatal("Inf pixel accepted")
	}
}
