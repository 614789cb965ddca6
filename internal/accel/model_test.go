package accel_test

import (
	"strings"
	"testing"

	"quq/internal/accel"
	"quq/internal/data"
	"quq/internal/nn"
	"quq/internal/ptq"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// runnerClassifier adapts a ModelRunner to ptq.Classifier.
type runnerClassifier struct {
	t *testing.T
	r *accel.ModelRunner
}

func (c runnerClassifier) Forward(img *tensor.Tensor) *tensor.Tensor {
	logits, stats, err := c.r.Run(img)
	if err != nil {
		c.t.Fatal(err)
	}
	if stats.MACs <= 0 {
		c.t.Fatal("no MACs accounted")
	}
	return logits
}

// TestModelRunnerClassifiesLikeQuantizedModel is the whole-system
// integration check: a trained-head ViT-Nano executed entirely on the
// integer QUA datapath — the served model's weights and quantizers —
// must reach nearly the same top-1 accuracy as the served fake-
// quantization forward of that very model, and stay close to FP32 at 8
// bits.
func TestModelRunnerClassifiesLikeQuantizedModel(t *testing.T) {
	cfg := vit.ViTNano
	m, _ := nn.PretrainedZoo(cfg, 31, 80)
	test := data.PatternSamples(cfg.Channels, cfg.ImageSize, 60, 606)
	images := make([]*tensor.Tensor, len(test))
	labels := make([]int, len(test))
	for i, s := range test {
		images[i] = s.Image
		labels[i] = s.Label
	}
	fp32 := ptq.Accuracy(ptq.ModelClassifier{M: m}, images, labels)
	if fp32 < 0.7 {
		t.Skipf("reference model too weak (%v) for an accuracy comparison", fp32)
	}

	qm, err := ptq.Quantize(m, ptq.NewQUQ(), ptq.CalibOptions{Bits: 8, Regime: ptq.Full, Images: data.CalibrationSet(cfg, 8, 5)})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := accel.NewModelRunner(qm.Model, qm.SiteParams(), accel.DefaultArray(8))
	if err != nil {
		t.Fatal(err)
	}
	served := ptq.Accuracy(qm, images, labels)
	acc := ptq.Accuracy(runnerClassifier{t, runner}, images, labels)
	if acc < fp32-0.10 {
		t.Fatalf("integer datapath top-1 %v too far below FP32 %v", acc, fp32)
	}
	if acc < served-0.05 || acc > served+0.05 {
		t.Fatalf("integer datapath top-1 %v not within 0.05 of the served forward's %v", acc, served)
	}
}

// TestModelRunnerTracksServedForward pins how far the integer SFUs and
// the M/2^N requantizers move the simulator's logits from the served
// fake-quantized forward of the same quantized model: the two share
// every weight code and every quantizer, so what is left is arithmetic.
func TestModelRunnerTracksServedForward(t *testing.T) {
	cfg := vit.ViTNano
	for _, c := range []struct {
		bits int
		min  float64
	}{{6, 0.95}, {8, 0.99}} {
		for seed := uint64(1); seed <= 3; seed++ {
			_, qm := serve(t, cfg, seed, c.bits, ptq.Full)
			runner, err := accel.NewModelRunner(qm.Model, qm.SiteParams(), accel.DefaultArray(c.bits))
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			images := data.Images(cfg, 8, seed^0x51)
			for _, img := range images {
				logits, _, err := runner.Run(img)
				if err != nil {
					t.Fatal(err)
				}
				sum += tensor.CosineSimilarity(logits, qm.Forward(img))
			}
			if mean := sum / float64(len(images)); mean < c.min {
				t.Errorf("%d-bit seed %d: mean logits cosine vs the served forward %.4f < %v", c.bits, seed, mean, c.min)
			}
		}
	}
}

func TestModelRunnerRejectsUnsupported(t *testing.T) {
	if _, err := accel.NewModelRunner(vit.New(vit.SwinTiny, 1), nil, accel.DefaultArray(8)); err == nil {
		t.Fatal("accepted a Swin model")
	}
	// A site the served table lacks is named, not calibrated around.
	_, qm := serve(t, oneBlock, 1, 8, ptq.Full)
	params := qm.SiteParams()
	delete(params, "b-1.head.in")
	_, err := accel.NewModelRunner(qm.Model, params, accel.DefaultArray(8))
	if err == nil || !strings.Contains(err.Error(), "b-1.head.in") {
		t.Fatalf("table without head.in accepted or key not named: %v", err)
	}
	// Weights that are not on their quantizer's grid (the FP32 model
	// instead of the served clone) are an error, not a re-quantization.
	if _, err := accel.NewModelRunner(vit.New(oneBlock, 1), qm.SiteParams(), accel.DefaultArray(8)); err == nil {
		t.Fatal("accepted weights off the served grid")
	}
}

func TestModelRunnerCycleAccountingScales(t *testing.T) {
	cfg := vit.ViTNano
	_, qm := serve(t, cfg, 33, 6, ptq.Full)
	img := data.Images(cfg, 1, 8)[0]

	big, err := accel.NewModelRunner(qm.Model, qm.SiteParams(), accel.ArrayConfig{N: 16, Bits: 6})
	if err != nil {
		t.Fatal(err)
	}
	small, err := accel.NewModelRunner(qm.Model, qm.SiteParams(), accel.ArrayConfig{N: 4, Bits: 6})
	if err != nil {
		t.Fatal(err)
	}
	_, sBig, err := big.Run(img)
	if err != nil {
		t.Fatal(err)
	}
	_, sSmall, err := small.Run(img)
	if err != nil {
		t.Fatal(err)
	}
	if sBig.MACs != sSmall.MACs {
		t.Fatalf("MACs depend on array size: %d vs %d", sBig.MACs, sSmall.MACs)
	}
	if sSmall.GEMMCycles <= sBig.GEMMCycles {
		t.Fatalf("4x4 array not slower than 16x16: %d vs %d", sSmall.GEMMCycles, sBig.GEMMCycles)
	}
}
