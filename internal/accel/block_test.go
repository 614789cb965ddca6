package accel_test

import (
	"math"
	"strings"
	"testing"

	"quq/internal/accel"
	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// oneBlock is the smallest plain ViT the runners and the oracle drive:
// one transformer block between a patch embedding and a head.
var oneBlock = vit.Config{
	Name: "ViT-OneBlock", Variant: vit.VariantViT,
	ImageSize: 8, PatchSize: 4, Channels: 1, Classes: 4,
	Dim: 24, Depth: 1, Heads: 2, MLPRatio: 2,
}

// serve quantizes a seeded synthetic model of cfg through the served
// pipeline (ptq.Quantize, QUQ) and returns the FP32 model beside it.
func serve(t *testing.T, cfg vit.Config, seed uint64, bits int, regime ptq.Regime) (vit.Model, *ptq.QuantizedModel) {
	t.Helper()
	m := vit.New(cfg, seed)
	qm, err := ptq.Quantize(m, ptq.NewQUQ(), ptq.CalibOptions{
		Bits: bits, Regime: regime, Images: data.CalibrationSet(cfg, 8, seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, qm
}

// blockIO captures block 0's input and output tensors of one forward.
func blockIO(forward func(vit.ForwardOpts)) (in, out *tensor.Tensor) {
	forward(vit.ForwardOpts{Tap: func(s vit.Site, x *tensor.Tensor) *tensor.Tensor {
		switch {
		case s.Block == -1 && s.Name == "embed.out":
			in = x
		case s.Block == 0 && s.Name == "resid2.out":
			out = x
		}
		return x
	}})
	return in, out
}

// TestBlockRunnerMatchesFakeQuant is the capstone integration test: a
// whole transformer block executed on the integer QUA datapath (QUB
// GEMMs, integer SFUs, integer residual adders) from the served model's
// own weights and quantizers must track the served fake-quantized
// forward of that block closely, and both must track the FP32 block.
func TestBlockRunnerMatchesFakeQuant(t *testing.T) {
	fp, qm := serve(t, oneBlock, 3, 8, ptq.Full)
	runner, err := accel.NewBlockRunner(qm.Model.(*vit.ViT).Blocks[0], 0, qm.SiteParams(), accel.DefaultArray(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range data.Images(oneBlock, 4, 30) {
		x, ref := blockIO(func(o vit.ForwardOpts) { qm.ForwardOpts(img, o) })
		got, stats, err := runner.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		if stats.GEMMCycles <= 0 || stats.MACs <= 0 {
			t.Fatal("no cycle accounting")
		}
		if cos := tensor.CosineSimilarity(got, ref); cos < 0.98 {
			t.Fatalf("integer block diverged from the served forward: cosine %v", cos)
		}
		// Error bounded relative to the signal (SFU approximations plus
		// requantization rounding accumulate across the block).
		if rel := math.Sqrt(tensor.MSE(got, ref)) / (ref.Std() + 1e-12); rel > 0.15 {
			t.Fatalf("relative error %v too high", rel)
		}
		// And the quantized paths must track the FP32 block.
		_, fpOut := blockIO(func(o vit.ForwardOpts) { fp.Forward(img, o) })
		if c := tensor.CosineSimilarity(got, fpOut); c < 0.97 {
			t.Fatalf("integer block diverged from FP32: cosine %v", c)
		}
	}
}

// TestBlockRunnerMissingSiteNamesKey: the runner calibrates nothing, so
// a table without one of its sites — here a Partial-regime model, which
// quantizes no residual stream — is a construction error naming the key.
func TestBlockRunnerMissingSiteNamesKey(t *testing.T) {
	_, qm := serve(t, oneBlock, 2, 8, ptq.Partial)
	_, err := accel.NewBlockRunner(qm.Model.(*vit.ViT).Blocks[0], 0, qm.SiteParams(), accel.DefaultArray(8))
	if err == nil || !strings.Contains(err.Error(), "b-1.embed.out") {
		t.Fatalf("partial-regime table accepted or key not named: %v", err)
	}
}

func TestBlockRunnerCycleAccounting(t *testing.T) {
	_, qm := serve(t, oneBlock, 4, 6, ptq.Full)
	blk, params := qm.Model.(*vit.ViT).Blocks[0], qm.SiteParams()
	r16, err := accel.NewBlockRunner(blk, 0, params, accel.ArrayConfig{N: 16, Bits: 6})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := accel.NewBlockRunner(blk, 0, params, accel.ArrayConfig{N: 4, Bits: 6})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := blockIO(func(o vit.ForwardOpts) { qm.ForwardOpts(data.Images(oneBlock, 1, 40)[0], o) })
	_, s16, err := r16.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	_, s4, err := r4.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	if s16.MACs != s4.MACs {
		t.Fatalf("MAC count depends on array size: %d vs %d", s16.MACs, s4.MACs)
	}
	if s4.GEMMCycles <= s16.GEMMCycles {
		t.Fatalf("smaller array not slower: %d vs %d cycles", s4.GEMMCycles, s16.GEMMCycles)
	}
}
