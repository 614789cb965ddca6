package vit

import (
	"fmt"
	"math"
	"testing"

	"quq/internal/tensor"
)

// seen is what one seam of a forward was shown, in order.
type seen struct {
	site string
	t    *tensor.Tensor
}

// record runs fwd with a Tap and an AttnSink that keep what they see (a
// forward given either never recycles those tensors, and never rewrites
// what a tap was shown: TestKeptTapTensorsHoldTheirBits).
func record(fwd func(ForwardOpts)) (taps, attn []seen) {
	fwd(ForwardOpts{
		Tap: func(s Site, x *tensor.Tensor) *tensor.Tensor {
			taps = append(taps, seen{s.String(), x})
			return x
		},
		Attn: func(blk int, a *tensor.Tensor) {
			attn = append(attn, seen{Site{Block: blk, Name: "attn"}.Key(), a})
		},
	})
	return taps, attn
}

// TestStackedForwardIsItsImagesConcatenated pins what batch-major means,
// for every architecture: at every site, and at the attention sink, the
// tensor a stacked forward of B images shows is the B lone forwards'
// tensors one after another in row order, bit for bit — so B = 1 shows
// exactly what a lone forward does, shapes included — and the logits
// come back index-aligned. Batches that repeat, reverse and re-mate the
// images hold each image to the same lone forward.
func TestStackedForwardIsItsImagesConcatenated(t *testing.T) {
	for _, cfg := range []Config{ViTNano, ViTSmall, DeiTSmall, SwinTiny} {
		m := New(cfg, 3)
		pool := []*tensor.Tensor{testImage(cfg, 1), testImage(cfg, 2), testImage(cfg, 3), testImage(cfg, 4)}
		loneTaps := make(map[*tensor.Tensor][]seen)
		loneAttn := make(map[*tensor.Tensor][]seen)
		loneOut := make(map[*tensor.Tensor]*tensor.Tensor)
		for _, img := range pool {
			loneTaps[img], loneAttn[img] = record(func(o ForwardOpts) { loneOut[img] = m.Forward(img, o) })
		}
		for _, pick := range [][]int{{0}, {0, 1}, {1, 0}, {2, 0, 3}, {3, 3, 1, 0, 2}} {
			imgs := make([]*tensor.Tensor, len(pick))
			for i, p := range pick {
				imgs[i] = pool[p]
			}
			var out []*tensor.Tensor
			taps, attn := record(func(o ForwardOpts) { out = m.ForwardBatch(imgs, o) })
			for _, leg := range []struct {
				what    string
				stacked []seen
				lone    map[*tensor.Tensor][]seen
			}{{"tap", taps, loneTaps}, {"attention sink", attn, loneAttn}} {
				if len(leg.stacked) != len(leg.lone[imgs[0]]) {
					t.Fatalf("%s batch %v: %s called %d times, a lone forward %d", cfg.Name, pick, leg.what, len(leg.stacked), len(leg.lone[imgs[0]]))
				}
				for s, got := range leg.stacked {
					one := leg.lone[imgs[0]][s]
					if got.site != one.site {
						t.Fatalf("%s batch %v: %s call %d is %s, a lone forward's %s", cfg.Name, pick, leg.what, s, got.site, one.site)
					}
					if got.t.Rank() != one.t.Rank() || got.t.Dim(0) != len(imgs)*one.t.Dim(0) || got.t.Dim(1) != one.t.Dim(1) {
						t.Fatalf("%s batch %v %s: stacked shape %v, lone %v", cfg.Name, pick, got.site, got.t.Shape(), one.t.Shape())
					}
					n := one.t.Len()
					for b, img := range imgs {
						assertSameBits(t, cfg.Name+" "+got.site, got.t.Data()[b*n:(b+1)*n], leg.lone[img][s].t.Data())
					}
				}
			}
			if len(out) != len(imgs) {
				t.Fatalf("%s batch %v: %d logit vectors", cfg.Name, pick, len(out))
			}
			for b, img := range imgs {
				if out[b].Rank() != 1 || out[b].Dim(0) != cfg.Classes {
					t.Fatalf("%s batch %v: logits %d have shape %v", cfg.Name, pick, b, out[b].Shape())
				}
				assertSameBits(t, cfg.Name+" logits", out[b].Data(), loneOut[img].Data())
			}
			// The arena pass (no Tap, no sink) computes the same bits.
			for b, o := range m.ForwardBatch(imgs, ForwardOpts{}) {
				assertSameBits(t, cfg.Name+" arena logits", o.Data(), loneOut[imgs[b]].Data())
			}
		}
		if out := m.ForwardBatch(nil, ForwardOpts{}); len(out) != 0 {
			t.Fatalf("%s: empty batch returned %d results", cfg.Name, len(out))
		}
	}
}

// TestKeptTapTensorsHoldTheirBits pins Tap's retention promise at every
// site, for every architecture, lone and stacked: after the forward
// returns, the tensor a tap kept holds the bits it held when the tap was
// called — the SFUs, which overwrite their input, must not reach it.
// The root package's TestTapKeepsWhatItWasShown pins the other half:
// a later forward does not recycle it.
func TestKeptTapTensorsHoldTheirBits(t *testing.T) {
	for _, cfg := range []Config{ViTNano, ViTSmall, DeiTSmall, SwinTiny} {
		m := New(cfg, 3)
		for _, b := range []int{1, 3} {
			imgs := make([]*tensor.Tensor, b)
			for i := range imgs {
				imgs[i] = testImage(cfg, uint64(i+1))
			}
			var kept, copied []seen
			m.ForwardBatch(imgs, ForwardOpts{Tap: func(s Site, x *tensor.Tensor) *tensor.Tensor {
				kept = append(kept, seen{s.String(), x})
				copied = append(copied, seen{s.String(), x.Clone()})
				return x
			}})
			for i, k := range kept {
				assertSameBits(t, fmt.Sprintf("%s B=%d %s", cfg.Name, b, k.site), k.t.Data(), copied[i].t.Data())
			}
		}
	}
}

// TestStackedForwardRejectsMixedShapes: a batch is one shape; an image
// of another must not be silently read with the first one's strides.
func TestStackedForwardRejectsMixedShapes(t *testing.T) {
	m := New(ViTNano, 3)
	other := ViTNano
	other.ImageSize = 8
	defer func() {
		if recover() == nil {
			t.Fatal("a batch mixing 16x16 and 8x8 images was accepted")
		}
	}()
	m.ForwardBatch([]*tensor.Tensor{testImage(ViTNano, 1), testImage(other, 2)}, ForwardOpts{})
}

func assertSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], w)
		}
	}
}
