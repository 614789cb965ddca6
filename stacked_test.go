// Stacked ≡ per-image, differentially: the served batch primitive,
// ptq.QuantizedModel.ForwardBatch, against the same model's lone Forward
// image by image and bit for bit — every architecture, both regimes,
// both GEMM engines, every quantization method. check.sh also runs these
// at -cpu 1,2,4: the chunking follows GOMAXPROCS when workers is 0.
package quq_test

import (
	"fmt"
	"math"
	"testing"

	"quq/internal/baselines"
	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// bothRegimes calibrates cfg once with method and assembles the Partial
// and the Full model over the shared results, the way the registry does.
func bothRegimes(tb testing.TB, cfg vit.Config, method ptq.Method) map[ptq.Regime]*ptq.QuantizedModel {
	tb.Helper()
	return bothRegimesAt(tb, cfg, method, 6)
}

// bothRegimesAt is bothRegimes at bits.
func bothRegimesAt(tb testing.TB, cfg vit.Config, method ptq.Method, bits int) map[ptq.Regime]*ptq.QuantizedModel {
	tb.Helper()
	m := vit.New(cfg, 1)
	stats := ptq.Collect(m, data.CalibrationSet(cfg, 4, 3), 0)
	gemmIn := ptq.CalibrateSites(stats, vit.KindGEMMIn, method, bits)
	acts := ptq.CalibrateSites(stats, vit.KindActivation, method, bits)
	w := ptq.QuantizeWeights(m, stats, method, bits)
	return map[ptq.Regime]*ptq.QuantizedModel{
		ptq.Partial: ptq.Assemble(w, ptq.Partial, gemmIn, acts),
		ptq.Full:    ptq.Assemble(w, ptq.Full, gemmIn, acts),
	}
}

// assertLogitBits holds got to the oracle's logits bit for bit.
func assertLogitBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d logits, want %d", what, got.Len(), want.Len())
	}
	for i, w := range want.Data() {
		if math.Float64bits(got.Data()[i]) != math.Float64bits(w) {
			t.Fatalf("%s: logit %d = %v, the oracle's %v", what, i, got.Data()[i], w)
		}
	}
}

// The grid assertStackedMatchesLone runs: batch sizes × worker counts
// over the first images, then batches that give imgs[2] new neighbours —
// first in a chunk and last — and reverse the set.
var (
	stackedSizes   = []int{1, 2, 3, 5, 8}
	stackedWorkers = []int{0, 1, 2, 3, 16}
	stackedPicks   = [][]int{{7, 2, 5}, {2, 0}, {6, 4, 3, 2}, {7, 6, 5, 4, 3, 2, 1, 0}}
)

// loneForwards is qm.Forward image by image: the oracle.
func loneForwards(qm *ptq.QuantizedModel, imgs []*tensor.Tensor) []*tensor.Tensor {
	lone := make([]*tensor.Tensor, len(imgs))
	for i, img := range imgs {
		lone[i] = qm.Forward(img)
	}
	return lone
}

// assertStackedMatchesLone holds ForwardBatch over the grid to lone, the
// model's own per-image Forward outputs of the eight imgs, and returns
// how many stacked forwards that took.
func assertStackedMatchesLone(t *testing.T, label string, qm *ptq.QuantizedModel, imgs, lone []*tensor.Tensor) (forwards int) {
	t.Helper()
	for _, b := range stackedSizes {
		for _, w := range stackedWorkers {
			got := qm.ForwardBatch(imgs[:b], w)
			forwards += len(ptq.BatchChunks(b, w)) - 1
			if len(got) != b {
				t.Fatalf("%s B=%d workers=%d: %d results", label, b, w, len(got))
			}
			for i := range got {
				assertLogitBits(t, fmt.Sprintf("%s B=%d workers=%d image %d", label, b, w, i), got[i], lone[i])
			}
		}
	}
	for _, pick := range stackedPicks {
		batch := make([]*tensor.Tensor, len(pick))
		for i, p := range pick {
			batch[i] = imgs[p]
		}
		for _, w := range []int{1, 2} {
			forwards += w
			for i, got := range qm.ForwardBatch(batch, w) {
				assertLogitBits(t, fmt.Sprintf("%s batch %v workers=%d image %d", label, pick, w, pick[i]), got, lone[pick[i]])
			}
		}
	}
	return forwards
}

// TestStackedForwardMatchesPerImage is the tentpole's oracle: whatever
// its batch-mates, the chunking or the worker count, an image's logits
// out of ForwardBatch are its lone Forward's, on the float GEMMs and on
// the integer engine — which declines in a stacked forward exactly what
// it declines in a lone one: nothing on ViT and DeiT, and on Swin the
// head GEMM, whose input is a mean of grid points and so off the grid.
func TestStackedForwardMatchesPerImage(t *testing.T) {
	cfgs := []vit.Config{vit.ViTNano, vit.ViTSmall, vit.DeiTSmall, vit.SwinTiny}
	if raceEnabled {
		// The chunk goroutines are the same code whatever the model, and
		// the detector makes the large models ten times dearer.
		cfgs = cfgs[:1]
	}
	for _, cfg := range cfgs {
		imgs := data.Images(cfg, 8, 5)
		for regime, qm := range bothRegimes(t, cfg, ptq.NewQUQ()) {
			label := fmt.Sprintf("%s/%v", cfg.Name, regime)
			assertStackedMatchesLone(t, label+" float", qm, imgs, loneForwards(qm, imgs))

			if err := qm.SetIntPath(true); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			lone := loneForwards(qm, imgs)
			perForward := qm.IntDeclines() / int64(len(imgs))
			want := int64(0)
			if cfg.Variant == vit.VariantSwin {
				want = 1
			}
			if perForward != want {
				t.Fatalf("%s: a lone forward declines %d GEMMs, want %d", label, perForward, want)
			}
			forwards := len(imgs) + assertStackedMatchesLone(t, label+" int", qm, imgs, lone)
			if n := qm.IntDeclines(); n != perForward*int64(forwards) {
				t.Fatalf("%s: the integer engine declined %d GEMMs over %d forwards, a lone forward %d", label, n, forwards, perForward)
			}
		}
	}
}

// TestStackedForwardMatchesPerImageEveryMethod: the baselines' site
// quantizers clone, index channels by position in the last axis, or
// both; stacking must be invisible to every one of them.
func TestStackedForwardMatchesPerImageEveryMethod(t *testing.T) {
	cfg := vit.ViTNano
	imgs := data.Images(cfg, 8, 5)
	for _, method := range []ptq.Method{
		ptq.NewQUQ(), baselines.BaseQ{}, baselines.PTQ4ViT{}, baselines.APQViT{}, baselines.FQViT{}, baselines.BiScaled{},
	} {
		for regime, qm := range bothRegimes(t, cfg, method) {
			assertStackedMatchesLone(t, fmt.Sprintf("%s/%v", method.Name(), regime), qm, imgs, loneForwards(qm, imgs))
		}
	}
}
