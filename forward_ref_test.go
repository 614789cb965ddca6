// The pre-kernel-layer forward, kept as a reference implementation: a
// line-for-line replica of the forward as it existed before the kernel
// layer (scalar zero-skip GEMMs, strided per-head attention loops, an
// allocation per intermediate, Clone + per-element Value at every
// quantizer site) lives below in test code, and the tests at the bottom
// hold the production forward to its logits bit for bit and to its
// steady-state allocation budget. Timing lives in bench/ (see
// bench/README.md), not here.
package quq_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"quq/internal/baselines"
	"quq/internal/data"
	"quq/internal/mathx"
	"quq/internal/ptq"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// benchQuantizedModel builds the ViT-Nano quantized model and input
// image the forward tests below share.
func benchQuantizedModel(tb testing.TB) (*ptq.QuantizedModel, *tensor.Tensor) {
	tb.Helper()
	return quantizedModel(tb, vit.ViTNano)
}

// quantizedModel builds cfg's 6-bit fully-quantized QUQ model and one
// input image.
func quantizedModel(tb testing.TB, cfg vit.Config) (*ptq.QuantizedModel, *tensor.Tensor) {
	tb.Helper()
	return quantizedModelAt(tb, cfg, ptq.Full)
}

// quantizedModelAt is quantizedModel in either regime.
func quantizedModelAt(tb testing.TB, cfg vit.Config, regime ptq.Regime) (*ptq.QuantizedModel, *tensor.Tensor) {
	tb.Helper()
	m := vit.New(cfg, 1)
	calib := data.CalibrationSet(cfg, 4, 3)
	qm, err := ptq.Quantize(m, ptq.NewQUQ(), ptq.CalibOptions{Bits: 6, Regime: regime, Images: calib})
	if err != nil {
		tb.Fatal(err)
	}
	return qm, data.Images(cfg, 1, 2)[0]
}

// --- pre-PR forward replica ---
//
// The functions below are a line-for-line copy of the forward path as it
// existed before the kernel layer: Linear.Apply was an allocating scalar
// i-k-j GEMM with a zero-skip plus a separate AddRowVector pass,
// attention ran strided per-head dot-product loops, and the activation
// quantizer cloned each tensor and called Params.Value per element. They
// are the bit-identity oracle for TestForwardLogitsMatchPrePR.

// refTap replays Tap.apply's nil/replace semantics.
func refTap(tap vit.Tap, site vit.Site, x *tensor.Tensor) *tensor.Tensor {
	if tap == nil {
		return x
	}
	if y := tap(site, x); y != nil {
		return y
	}
	return x
}

// refLinearApply is the pre-kernel-layer Linear.Apply.
func refLinearApply(l *vit.Linear, in *tensor.Tensor) *tensor.Tensor {
	m, k := in.Dim(0), in.Dim(1)
	out := tensor.New(m, l.Out())
	for i := 0; i < m; i++ {
		arow := in.Row(i)
		orow := out.Row(i)
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := l.W.Row(kk)
			for j := range brow {
				orow[j] += av * brow[j]
			}
		}
	}
	return out.AddRowVector(l.B)
}

// refBlockForward is the pre-kernel-layer Block.Forward, taps included.
func refBlockForward(b *vit.Block, x *tensor.Tensor, nSeq, blk int, tap vit.Tap) *tensor.Tensor {
	dim := x.Dim(1)
	s := x.Dim(0)
	t := s / nSeq
	heads := b.Heads
	dh := dim / heads
	scale := 1 / math.Sqrt(float64(dh))

	h := b.LN1.Apply(x)
	h = refTap(tap, vit.Site{Block: blk, Name: "ln1.out", Kind: vit.KindGEMMIn}, h)
	qkvOut := refLinearApply(b.QKV, h)

	q, k, v := tensor.New(s, dim), tensor.New(s, dim), tensor.New(s, dim)
	for r := 0; r < s; r++ {
		row := qkvOut.Row(r)
		copy(q.Row(r), row[:dim])
		copy(k.Row(r), row[dim:2*dim])
		copy(v.Row(r), row[2*dim:])
	}
	q = refTap(tap, vit.Site{Block: blk, Name: "attn.q", Kind: vit.KindGEMMIn}, q)
	k = refTap(tap, vit.Site{Block: blk, Name: "attn.k", Kind: vit.KindGEMMIn}, k)
	v = refTap(tap, vit.Site{Block: blk, Name: "attn.v", Kind: vit.KindGEMMIn}, v)

	scores := tensor.New(nSeq*heads*t, t)
	for sq := 0; sq < nSeq; sq++ {
		for hd := 0; hd < heads; hd++ {
			for i := 0; i < t; i++ {
				qrow := q.Row(sq*t + i)[hd*dh : (hd+1)*dh]
				srow := scores.Row((sq*heads+hd)*t + i)
				for j := 0; j < t; j++ {
					krow := k.Row(sq*t + j)[hd*dh : (hd+1)*dh]
					var dot float64
					for e := range qrow {
						dot += qrow[e] * krow[e]
					}
					srow[j] = dot * scale
				}
			}
		}
	}
	scores = refTap(tap, vit.Site{Block: blk, Name: "attn.softmax_in", Kind: vit.KindActivation}, scores)
	for r := 0; r < scores.Dim(0); r++ {
		mathx.SoftmaxInPlace(scores.Row(r))
	}
	scores = refTap(tap, vit.Site{Block: blk, Name: "attn.softmax_out", Kind: vit.KindGEMMIn}, scores)

	ctx := tensor.New(s, dim)
	for sq := 0; sq < nSeq; sq++ {
		for hd := 0; hd < heads; hd++ {
			for i := 0; i < t; i++ {
				prow := scores.Row((sq*heads+hd)*t + i)
				crow := ctx.Row(sq*t + i)[hd*dh : (hd+1)*dh]
				for j := 0; j < t; j++ {
					p := prow[j]
					if p == 0 {
						continue
					}
					vrow := v.Row(sq*t + j)[hd*dh : (hd+1)*dh]
					for e := range crow {
						crow[e] += p * vrow[e]
					}
				}
			}
		}
	}
	ctx = refTap(tap, vit.Site{Block: blk, Name: "attn.proj_in", Kind: vit.KindGEMMIn}, ctx)
	o := refLinearApply(b.Proj, ctx)
	o = refTap(tap, vit.Site{Block: blk, Name: "attn.proj_out", Kind: vit.KindActivation}, o)

	x = x.Add(o)
	x = refTap(tap, vit.Site{Block: blk, Name: "resid1.out", Kind: vit.KindActivation}, x)

	h = b.LN2.Apply(x)
	h = refTap(tap, vit.Site{Block: blk, Name: "ln2.out", Kind: vit.KindGEMMIn}, h)
	h = refLinearApply(b.FC1, h)
	h = refTap(tap, vit.Site{Block: blk, Name: "mlp.gelu_in", Kind: vit.KindActivation}, h)
	h.Apply(mathx.Gelu)
	h = refTap(tap, vit.Site{Block: blk, Name: "mlp.gelu_out", Kind: vit.KindGEMMIn}, h)
	h = refLinearApply(b.FC2, h)
	h = refTap(tap, vit.Site{Block: blk, Name: "mlp.fc2_out", Kind: vit.KindActivation}, h)

	x = x.Add(h)
	x = refTap(tap, vit.Site{Block: blk, Name: "resid2.out", Kind: vit.KindActivation}, x)
	return x
}

// refModelForward is the pre-kernel-layer ViT.Forward for the ViT token
// layout — class token, register tokens if any, patches — which is the
// ViT-Nano and ViT-S shapes the tests run; it has no distillation token.
func refModelForward(tb testing.TB, m *vit.ViT, img *tensor.Tensor, tap vit.Tap) *tensor.Tensor {
	tb.Helper()
	if m.Dist != nil {
		tb.Fatal("pre-PR replica has no distillation token")
	}
	cfg := m.Config()
	patches := vit.Patchify(img, cfg.PatchSize)
	patches = refTap(tap, vit.Site{Block: -1, Name: "patch.in", Kind: vit.KindGEMMIn}, patches)
	emb := refLinearApply(m.Patch, patches)

	nreg := 0
	if m.Reg != nil {
		nreg = m.Reg.Dim(0)
	}
	tokens := tensor.New(emb.Dim(0)+1+nreg, cfg.Dim)
	copy(tokens.Row(0), m.Cls)
	for r := 0; r < nreg; r++ {
		copy(tokens.Row(1+r), m.Reg.Row(r))
	}
	for r := 0; r < emb.Dim(0); r++ {
		copy(tokens.Row(r+1+nreg), emb.Row(r))
	}
	tokens.AddInPlace(m.Pos)
	x := refTap(tap, vit.Site{Block: -1, Name: "embed.out", Kind: vit.KindActivation}, tokens)

	for i, b := range m.Blocks {
		x = refBlockForward(b, x, 1, i, tap)
	}
	x = m.Final.Apply(x)
	x = refTap(tap, vit.Site{Block: -1, Name: "head.in", Kind: vit.KindGEMMIn}, x)

	cls := tensor.New(1, cfg.Dim)
	copy(cls.Row(0), x.Row(0))
	return refLinearApply(m.Head, cls).Reshape(cfg.Classes)
}

// copyingTap is the old activation-quantizer shape as a vit.Tap: Clone,
// then a per-element Params.Value loop, at every calibrated site. The
// tensor it was handed is left as it was.
func copyingTap(qm *ptq.QuantizedModel) vit.Tap {
	return func(site vit.Site, x *tensor.Tensor) *tensor.Tensor {
		tq, ok := qm.Acts[site.Key()]
		if !ok {
			return x
		}
		p := tq.(ptq.QUQTensorQuantizer).Params
		out := x.Clone()
		d := out.Data()
		for i, v := range d {
			d[i] = p.Value(v)
		}
		return out
	}
}

// preprForward replays the full pre-kernel-layer quantized forward bit
// for bit: the replica model forward above, with the old
// activation-quantizer shape at every calibrated site.
func preprForward(tb testing.TB, qm *ptq.QuantizedModel, img *tensor.Tensor) *tensor.Tensor {
	tb.Helper()
	m, ok := qm.Model.(*vit.ViT)
	if !ok {
		tb.Fatalf("pre-PR replica needs *vit.ViT, got %T", qm.Model)
	}
	return refModelForward(tb, m, img, copyingTap(qm))
}

// TestForwardLogitsMatchPrePR asserts that the served forward — in-place
// kernel quantizers on arena tensors, lone and stacked into a batch —
// reproduces the copying, scalar, per-image reference logits bit for bit.
// ViT-Nano and ViT-S (the two bench models), fully and partially
// quantized, are held to the pre-kernel-layer replica above — whose own
// per-element Gelu and per-row SoftmaxInPlace loops make it an oracle for
// the forward's SFU slice kernels, on both sides of their selection, and
// whose one-image-at-a-time body makes it one for the batch-major
// forward, that shares no code with either. The replica has no window partition or distillation token, so
// Swin-T and DeiT-S are held to their own model code run the old way: one
// image and a Tap (which keeps every tensor an ordinary allocation) that
// clones each site and quantizes the clone through Value.
func TestForwardLogitsMatchPrePR(t *testing.T) {
	for _, row := range []struct {
		cfg    vit.Config
		regime ptq.Regime
	}{
		{vit.ViTNano, ptq.Full}, {vit.ViTNano, ptq.Partial},
		{vit.ViTSmall, ptq.Full}, {vit.ViTSmall, ptq.Partial},
		{vit.DeiTSmall, ptq.Full}, {vit.SwinTiny, ptq.Full},
	} {
		cfg := row.cfg
		qm, _ := quantizedModelAt(t, cfg, row.regime)
		imgs := data.Images(cfg, 3, 2)
		want := make([]*tensor.Tensor, len(imgs))
		for i, img := range imgs {
			if cfg.Variant == vit.VariantViT {
				want[i] = preprForward(t, qm, img)
			} else {
				want[i] = qm.Model.Forward(img, vit.ForwardOpts{Tap: copyingTap(qm)})
			}
		}
		label := fmt.Sprintf("%s/%v", cfg.Name, row.regime)
		// Twice: the second pass runs on recycled arena tensors.
		for pass := 0; pass < 2; pass++ {
			assertLogitBits(t, label+" lone", qm.Forward(imgs[0]), want[0])
			// One stack of three, then a stack of two beside a lone one.
			for workers := 1; workers <= 2; workers++ {
				for i, got := range qm.ForwardBatch(imgs, workers) {
					assertLogitBits(t, fmt.Sprintf("%s batch, image %d", label, i), got, want[i])
				}
			}
		}
	}
}

// TestTapSeesWhatThePrePRTapSaw: making Forward the one-image case of the
// batch-major body must not change what a caller's Tap is shown. The
// replica's tap and the served forward's, on the same image, see the same
// sites in the same order with the same shapes and the same quantized
// bits.
func TestTapSeesWhatThePrePRTapSaw(t *testing.T) {
	// The replica's softmax and GELU write their input in place after
	// its tap, so what each tap saw is copied out.
	type shown struct {
		site  vit.Site
		shape []int
		data  []float64
	}
	for _, cfg := range []vit.Config{vit.ViTNano, vit.ViTSmall} {
		qm, img := quantizedModel(t, cfg)
		var want, got []shown
		quantize := copyingTap(qm)
		refModelForward(t, qm.Model.(*vit.ViT), img, func(site vit.Site, x *tensor.Tensor) *tensor.Tensor {
			y := quantize(site, x)
			want = append(want, shown{site, y.Shape(), append([]float64(nil), y.Data()...)})
			return y
		})
		qm.ForwardOpts(img, vit.ForwardOpts{Tap: func(site vit.Site, x *tensor.Tensor) *tensor.Tensor {
			got = append(got, shown{site, x.Shape(), append([]float64(nil), x.Data()...)})
			return x
		}})
		if len(got) != len(want) {
			t.Fatalf("%s: the tap ran %d times, the replica's %d", cfg.Name, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.site != w.site || len(g.shape) != len(w.shape) || len(g.data) != len(w.data) {
				t.Fatalf("%s call %d: saw %v %v, the replica's tap %v %v", cfg.Name, i, g.site, g.shape, w.site, w.shape)
			}
			for d := range w.shape {
				if g.shape[d] != w.shape[d] {
					t.Fatalf("%s %v: shape %v, the replica's %v", cfg.Name, w.site, g.shape, w.shape)
				}
			}
			for j, v := range w.data {
				if math.Float64bits(g.data[j]) != math.Float64bits(v) {
					t.Fatalf("%s %v: element %d = %v, the replica's tap saw %v", cfg.Name, w.site, j, g.data[j], v)
				}
			}
		}
	}
}

// forwardBudgets are the steady-state ceilings for one quantized forward,
// per image: heap allocations and bytes. Measured for a lone forward, 6
// allocations on both models (the one-image slice and the result slice,
// the logits tensor's three, one bound-method closure) and 176 B on
// ViT-Nano, 992 B on ViT-S — before the forward carved its intermediates
// from the arena and quantized them in place these were 797 / 3,865
// allocations and 12.9 MB on ViT-S. The ceilings are measured + 10 %: one
// tensor that stops coming from the arena costs three allocations and
// tens of kilobytes, and fails both. (Making Forward the one-image batch
// moved the pin from 7 allocations and 224 / 1,040 B to these: two
// slices came, and the fresh rank-2 head output with its reshaped view
// went — the stacked head output is arena scratch, each image's logits
// one fresh rank-1 tensor.) A batch of four on one worker pays the
// per-call part once and the logits four times — 17 allocations, 4.25 an
// image — so it is held to the lone forward's ceilings per image. The
// comparison methods quantize in place too and are held to QUQ's
// ViT-Nano pin.
var forwardBudgets = []struct {
	cfg    vit.Config
	method ptq.Method
	allocs float64
	bytes  uint64
}{
	{vit.ViTNano, ptq.NewQUQ(), 7, 200},
	{vit.ViTSmall, ptq.NewQUQ(), 7, 1100},
	{vit.ViTNano, baselines.BaseQ{}, 7, 200},
	{vit.ViTNano, baselines.PTQ4ViT{}, 7, 200},
	{vit.ViTNano, baselines.APQViT{}, 7, 200},
	{vit.ViTNano, baselines.FQViT{}, 7, 200},
	{vit.ViTNano, baselines.BiScaled{}, 7, 200},
}

// TestForwardAllocBudget fails if the steady-state quantized forward,
// lone or stacked, starts allocating above the recorded per-image
// budgets — the canary for "someone dropped tensor reuse on the hot path".
func TestForwardAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool reuse; allocs/op is not meaningful")
	}
	for _, b := range forwardBudgets {
		qm := bothRegimes(t, b.cfg, b.method)[ptq.Full]
		label := b.cfg.Name + "/" + b.method.Name()
		for _, n := range []int{1, 4} {
			imgs := data.Images(b.cfg, n, 2)
			forward := func() { qm.ForwardBatch(imgs, 1) }
			if n == 1 {
				forward = func() { qm.Forward(imgs[0]) }
			}
			forward() // warm the arena and pack pools
			if allocs := testing.AllocsPerRun(5, forward) / float64(n); allocs > b.allocs {
				t.Errorf("%s B=%d: steady-state forward allocates %.1f/image, budget %.0f", label, n, allocs, b.allocs)
			}
			// Other goroutines can add to a MemStats delta, never take away:
			// the smallest of a few repetitions is the forward's own.
			least := uint64(math.MaxUint64)
			var before, after runtime.MemStats
			for rep := 0; rep < 3; rep++ {
				runtime.ReadMemStats(&before)
				forward()
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if least/uint64(n) > b.bytes {
				t.Errorf("%s B=%d: steady-state forward allocates %d B/image, budget %d", label, n, least/uint64(n), b.bytes)
			}
		}
	}
}

// TestTapKeepsWhatItWasShown pins the ownership rule the arena rests on.
// A caller's Tap may keep a tensor it was shown: the quantized values it
// saw at b00.ln1.out must still be there after another forward has run
// (so the forward must not have recycled that tensor), and neither kind
// of forward may write to the input image.
func TestTapKeepsWhatItWasShown(t *testing.T) {
	qm, img := benchQuantizedModel(t)
	pristine := img.Clone()
	var kept *tensor.Tensor
	want := qm.ForwardOpts(img, vit.ForwardOpts{Tap: func(s vit.Site, x *tensor.Tensor) *tensor.Tensor {
		if s.Key() == "b00.ln1.out" {
			kept = x
		}
		return x
	}})
	if kept == nil {
		t.Fatal("tap never saw b00.ln1.out")
	}
	seen := kept.Clone()
	p := qm.Acts["b00.ln1.out"].(ptq.QUQTensorQuantizer).Params
	for i, v := range seen.Data() {
		if math.Float64bits(v) != math.Float64bits(p.Value(v)) {
			t.Fatalf("element %d = %v reached the tap unquantized", i, v)
		}
	}
	for pass := 0; pass < 2; pass++ {
		got := qm.Forward(img) // no tap: arena tensors, recycled on the second pass
		for i, w := range want.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(w) {
				t.Fatalf("pass %d: logit %d = %v with arena tensors, %v with a tap", pass, i, got.Data()[i], w)
			}
		}
	}
	for i, v := range seen.Data() {
		if math.Float64bits(kept.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("the tensor a tap kept changed at %d after later forwards: %v, was %v", i, kept.Data()[i], v)
		}
	}
	for i, v := range pristine.Data() {
		if math.Float64bits(img.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("forward wrote to the input image at %d: %v, was %v", i, img.Data()[i], v)
		}
	}
}
