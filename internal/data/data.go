// Package data provides the synthetic image workloads that substitute for
// ImageNet in this reproduction (see DESIGN.md).
//
// Two generators are provided. PatternSamples emits a 10-class texture
// classification task — stripes, checkerboards, blobs, rings at varying
// phases and amplitudes under additive noise — that a small ViT can
// genuinely learn, giving the accuracy experiments a true top-1 metric
// for the trained model. Images emits structured random images at any
// model geometry, used as the evaluation set for the agreement-with-FP32
// metric on the proxy model zoo.
package data

import (
	"fmt"
	"math"

	"quq/internal/rng"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// NumPatternClasses is the label count of the pattern dataset.
const NumPatternClasses = 10

// Sample is one labelled image.
type Sample struct {
	Image *tensor.Tensor // [channels, H, W]
	Label int
}

// PatternImage draws one image of the given class. Every class has a
// random phase, amplitude and noise level so the task requires learning
// the texture, not memorizing pixels.
func PatternImage(label, size int, src *rng.Source) *tensor.Tensor {
	img := tensor.New(1, size, size)
	amp := 0.8 + 0.4*src.Float64()
	phase := src.Float64() * 2 * math.Pi
	noise := 0.10 + 0.10*src.Float64()
	cx := float64(size-1) / 2
	cy := float64(size-1) / 2

	val := func(y, x int) float64 {
		fy, fx := float64(y), float64(x)
		switch label {
		case 0: // low-frequency horizontal stripes
			return math.Sin(fy*2*math.Pi/float64(size) + phase)
		case 1: // high-frequency horizontal stripes
			return math.Sin(fy*6*math.Pi/float64(size) + phase)
		case 2: // low-frequency vertical stripes
			return math.Sin(fx*2*math.Pi/float64(size) + phase)
		case 3: // high-frequency vertical stripes
			return math.Sin(fx*6*math.Pi/float64(size) + phase)
		case 4: // checkerboard
			return math.Sin(fy*4*math.Pi/float64(size)+phase) * math.Sin(fx*4*math.Pi/float64(size)+phase)
		case 5: // diagonal stripes
			return math.Sin((fy+fx)*3*math.Pi/float64(size) + phase)
		case 6: // centre blob
			d := math.Hypot(fy-cy, fx-cx) / float64(size)
			return math.Exp(-8 * d * d * 2)
		case 7: // four corner blobs
			d := math.Min(
				math.Min(math.Hypot(fy, fx), math.Hypot(fy, fx-float64(size-1))),
				math.Min(math.Hypot(fy-float64(size-1), fx), math.Hypot(fy-float64(size-1), fx-float64(size-1))),
			) / float64(size)
			return math.Exp(-10 * d * d * 2)
		case 8: // concentric rings
			d := math.Hypot(fy-cy, fx-cx) / float64(size)
			return math.Sin(d*8*math.Pi + phase)
		default: // radial gradient
			d := math.Hypot(fy-cy, fx-cx) / float64(size)
			return 1 - 2*d
		}
	}
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			img.Set(amp*val(y, x)+src.Gauss(0, noise), 0, y, x)
		}
	}
	return img
}

// PatternSamples generates n labelled pattern images at an arbitrary
// geometry: the grayscale pattern is projected onto each channel with a
// random per-channel gain, so multi-channel models see the same 10-class
// texture task. Classes are balanced round-robin.
func PatternSamples(channels, size, n int, seed uint64) []Sample {
	src := rng.New(seed)
	out := make([]Sample, n)
	for i := range out {
		label := i % NumPatternClasses
		gray := PatternImage(label, size, src)
		img := tensor.New(channels, size, size)
		for c := 0; c < channels; c++ {
			gain := 0.85 + 0.3*src.Float64()
			for y := 0; y < size; y++ {
				for x := 0; x < size; x++ {
					img.Set(gain*gray.At(0, y, x)+src.Gauss(0, 0.05), c, y, x)
				}
			}
		}
		out[i] = Sample{Image: img, Label: label}
	}
	return out
}

// Images generates n structured random images matching the model
// configuration's geometry: a random low-frequency field per channel plus
// pixel noise, standardized to roughly zero mean and unit variance (the
// normalization a vision pipeline would apply).
func Images(cfg vit.Config, n int, seed uint64) []*tensor.Tensor {
	src := rng.New(seed)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = Image(cfg.Channels, cfg.ImageSize, src)
	}
	return out
}

// Image draws one structured random image: a sum of a few random 2-D
// sinusoids and a Gaussian blob per channel, plus noise.
func Image(channels, size int, src *rng.Source) *tensor.Tensor {
	img := tensor.New(channels, size, size)
	for c := 0; c < channels; c++ {
		// Random sinusoid mixture.
		type wave struct{ ky, kx, phase, amp float64 }
		waves := make([]wave, 3)
		for i := range waves {
			waves[i] = wave{
				ky:    src.Uniform(0, 4) * 2 * math.Pi / float64(size),
				kx:    src.Uniform(0, 4) * 2 * math.Pi / float64(size),
				phase: src.Float64() * 2 * math.Pi,
				amp:   src.Uniform(0.2, 0.8),
			}
		}
		by, bx := src.Uniform(0, float64(size)), src.Uniform(0, float64(size))
		bamp := src.Uniform(-1, 1)
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				v := src.Gauss(0, 0.3)
				for _, wv := range waves {
					v += wv.amp * math.Sin(wv.ky*float64(y)+wv.kx*float64(x)+wv.phase)
				}
				d := math.Hypot(float64(y)-by, float64(x)-bx) / float64(size)
				v += bamp * math.Exp(-6*d*d)
				img.Set(v, c, y, x)
			}
		}
	}
	// Standardize.
	mean := img.Mean()
	std := img.Std()
	if std == 0 {
		std = 1
	}
	img.Apply(func(v float64) float64 { return (v - mean) / std })
	return img
}

// ImageFromFlat validates a request-supplied flat pixel slice against the
// model geometry and reshapes it into a [channels, H, W] image tensor.
// The slice is laid out channel-major (all of channel 0's rows, then
// channel 1, ...), matching Tensor's row-major order. Non-finite pixels
// are rejected: a single NaN would propagate through every GEMM and turn
// the logits into garbage that still serializes as valid JSON.
//
// This is the decode path between quq-serve's request body and the
// inference stack. The tensor takes ownership of vals: it is a view, not
// a copy, so the caller must not touch vals afterwards.
func ImageFromFlat(cfg vit.Config, vals []float64) (*tensor.Tensor, error) {
	want := cfg.Channels * cfg.ImageSize * cfg.ImageSize
	if len(vals) != want {
		return nil, fmt.Errorf("data: image has %d values, %s wants %d (%d×%d×%d)",
			len(vals), cfg.Name, want, cfg.Channels, cfg.ImageSize, cfg.ImageSize)
	}
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("data: image value %d is not finite", i)
		}
	}
	return tensor.FromSlice(vals, cfg.Channels, cfg.ImageSize, cfg.ImageSize), nil
}

// CalibrationSet returns the paper's calibration protocol: a small number
// of images (32 in all experiments) drawn deterministically and disjoint
// from the evaluation seed space.
func CalibrationSet(cfg vit.Config, n int, seed uint64) []*tensor.Tensor {
	return Images(cfg, n, seed^0xCA11B)
}
