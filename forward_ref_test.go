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
	"math"
	"testing"

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
	m := vit.New(vit.ViTNano, 1)
	calib := data.CalibrationSet(vit.ViTNano, 4, 3)
	qm, err := ptq.Quantize(m, ptq.NewQUQ(), ptq.CalibOptions{Bits: 6, Regime: ptq.Full, Images: calib})
	if err != nil {
		tb.Fatal(err)
	}
	return qm, data.Images(vit.ViTNano, 1, 2)[0]
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

// refModelForward is the pre-kernel-layer ViT.Forward (ViT/DeiT variant
// without distillation or register tokens — the ViT-Nano shape the
// tests run).
func refModelForward(tb testing.TB, m *vit.ViT, img *tensor.Tensor, tap vit.Tap) *tensor.Tensor {
	tb.Helper()
	if m.Dist != nil || m.Reg != nil {
		tb.Fatal("pre-PR replica covers the plain ViT token layout only")
	}
	cfg := m.Config()
	patches := vit.Patchify(img, cfg.PatchSize)
	patches = refTap(tap, vit.Site{Block: -1, Name: "patch.in", Kind: vit.KindGEMMIn}, patches)
	emb := refLinearApply(m.Patch, patches)

	tokens := tensor.New(emb.Dim(0)+1, cfg.Dim)
	copy(tokens.Row(0), m.Cls)
	for r := 0; r < emb.Dim(0); r++ {
		copy(tokens.Row(r+1), emb.Row(r))
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

// preprForward replays the full pre-kernel-layer quantized forward bit
// for bit: the replica model forward above, with the old
// activation-quantizer shape (Clone, then a per-element Params.Value
// loop) at every calibrated site.
func preprForward(tb testing.TB, qm *ptq.QuantizedModel, img *tensor.Tensor) *tensor.Tensor {
	tb.Helper()
	m, ok := qm.Model.(*vit.ViT)
	if !ok {
		tb.Fatalf("pre-PR replica needs *vit.ViT, got %T", qm.Model)
	}
	tap := func(site vit.Site, x *tensor.Tensor) *tensor.Tensor {
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
	return refModelForward(tb, m, img, tap)
}

// TestForwardLogitsMatchPrePR asserts that the kernel-layer forward
// reproduces the pre-kernel-layer logits bit for bit, serial and with
// the intra-op budget raised.
func TestForwardLogitsMatchPrePR(t *testing.T) {
	qm, img := benchQuantizedModel(t)
	want := preprForward(t, qm, img)
	check := func(label string) {
		t.Helper()
		got := qm.Forward(img)
		for i, w := range want.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(w) {
				t.Fatalf("%s: logit %d = %v, pre-PR reference %v", label, i, got.Data()[i], w)
			}
		}
	}
	check("serial")
	tensor.SetIntraOpWorkers(4)
	t.Cleanup(func() { tensor.SetIntraOpWorkers(1) })
	check("parallel")
}

// forwardAllocBudget is the steady-state allocation ceiling for one
// quantized ViT-Nano forward. Measured: 797 allocs/op with the kernel
// layer (783 before it — the arena and destination-passing kernels pay
// for the pooling headers they add). The ceiling leaves headroom for
// compiler-version jitter while still catching a lost arena (which
// costs hundreds of allocations per forward).
const forwardAllocBudget = 860

// TestForwardAllocBudget fails if the steady-state quantized forward
// starts allocating above the recorded budget — the cheap canary for
// "someone dropped tensor reuse on the hot path".
func TestForwardAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool reuse; allocs/op is not meaningful")
	}
	qm, img := benchQuantizedModel(t)
	qm.Forward(img) // warm the arena and pack pools
	allocs := testing.AllocsPerRun(5, func() { qm.Forward(img) })
	if allocs > forwardAllocBudget {
		t.Fatalf("steady-state forward allocates %.0f/op, budget %d", allocs, forwardAllocBudget)
	}
}
