package vit

import (
	"fmt"
	"quq/internal/check"

	"quq/internal/tensor"
)

// Model is the common interface of the ViT/DeiT and Swin implementations:
// a classifier over single images with instrumentable internals.
//
// Concurrency: Forward, ForwardBatch, Config, NumBlocks and Features
// treat the model as read-only — both implementations allocate every
// intermediate tensor per call and never write to parameter storage — so
// a model may serve concurrent forwards from multiple goroutines. Mutating operations
// (ForEachWeight used for in-place weight quantization, Params used by
// training and checkpoint loading, Clone's source enumeration) must not
// run concurrently with Forward. Taps are invoked on the calling
// goroutine; a Tap that closes over shared state needs its own
// synchronization.
type Model interface {
	// Config returns the model's configuration.
	Config() Config
	// Forward classifies one image ([channels, H, W]) and returns the
	// logits ([classes]). The opts instrument the pass; ForwardOpts{} is
	// plain inference. It is ForwardBatch over that one image.
	Forward(img *tensor.Tensor, opts ForwardOpts) *tensor.Tensor
	// ForwardBatch classifies imgs, all of one shape, in one batch-major
	// pass and returns their logits index-aligned: the images' tokens are
	// stacked into [len(imgs)·T, dim] tensors, so every weight GEMM runs
	// once over all of them, while attention, position embeddings and
	// pooling stay per image. Rows never mix across images, so each
	// image's logits carry the bits of its lone Forward whatever its
	// batch-mates. The seams of opts see the stacked tensors, image after
	// image in row order.
	ForwardBatch(imgs []*tensor.Tensor, opts ForwardOpts) []*tensor.Tensor
	// ForEachWeight visits every GEMM weight layer with its site, in a
	// stable order. The PTQ pipeline uses it to quantize weights in
	// place on a cloned model.
	ForEachWeight(fn func(Site, *Linear))
	// Params visits every trainable parameter slice (weights, biases,
	// norms, tokens, position embeddings) in a stable order; used for
	// serialization and by the training substrate.
	Params(fn func(name string, data []float64))
	// NumBlocks returns the number of transformer blocks.
	NumBlocks() int
	// Clone returns a deep copy whose tensors share nothing with the
	// receiver.
	Clone() Model
}

// Features returns the vector the classification head consumes for img:
// the class token (ViT), the mean of class and distillation tokens
// (DeiT), or the pooled tokens (Swin), after the final LayerNorm. The
// head-fitting substrate trains a linear readout on these.
func Features(m Model, img *tensor.Tensor, opts ForwardOpts) []float64 {
	cfg := m.Config()
	var feat []float64
	outer := opts.Tap
	opts.Tap = func(site Site, x *tensor.Tensor) *tensor.Tensor {
		if outer != nil {
			if y := outer(site, x); y != nil {
				x = y
			}
		}
		if site.Block == -1 && site.Name == "head.in" {
			dim := x.Dim(1)
			feat = make([]float64, dim)
			switch cfg.Variant {
			case VariantDeiT:
				for c := 0; c < dim; c++ {
					feat[c] = (x.At(0, c) + x.At(1, c)) / 2
				}
			case VariantSwin:
				for r := 0; r < x.Dim(0); r++ {
					row := x.Row(r)
					for c := range feat {
						feat[c] += row[c]
					}
				}
				for c := range feat {
					feat[c] /= float64(x.Dim(0))
				}
			default:
				copy(feat, x.Row(0))
			}
		}
		return x
	}
	m.Forward(img, opts)
	return feat
}

// Patchify flattens img ([C, H, W]) into non-overlapping ps×ps patches:
// a [numPatches, C·ps·ps] tensor in row-major patch order.
func Patchify(img *tensor.Tensor, ps int) *tensor.Tensor {
	return patchify(scratch{}, []*tensor.Tensor{img}, ps)
}

// patchify is Patchify over a batch into one tensor of sc's (the zero
// scratch allocates), image after image: each patch row is the image's
// ps-pixel runs, channel by channel and line by line, copied from the
// flat data. Every image must have the shape of the first.
//
//quq:hotpath stem of every forward; the destination is the pass's scratch
func patchify(sc scratch, imgs []*tensor.Tensor, ps int) *tensor.Tensor {
	c, h, w := imgs[0].Dim(0), imgs[0].Dim(1), imgs[0].Dim(2)
	if h%ps != 0 || w%ps != 0 {
		panic(check.Invariantf("vit: %dx%d image not divisible into %d-pixel patches", h, w, ps))
	}
	gy, gx := h/ps, w/ps
	out := sc.uninit(len(imgs)*gy*gx, c*ps*ps)
	for b, img := range imgs {
		if img.Rank() != 3 || img.Dim(0) != c || img.Dim(1) != h || img.Dim(2) != w {
			panic(check.Invariantf("vit: image %d of the batch is %v, the first [%d %d %d]", b, img.Shape(), c, h, w))
		}
		pix := img.Data()
		for py := 0; py < gy; py++ {
			for px := 0; px < gx; px++ {
				row := out.Row((b*gy+py)*gx + px)
				for ch := 0; ch < c; ch++ {
					for y := 0; y < ps; y++ {
						src := (ch*h+py*ps+y)*w + px*ps
						copy(row[:ps], pix[src:src+ps])
						row = row[ps:]
					}
				}
			}
		}
	}
	return out
}

// addPos adds the [t, dim] position table into each of x's n
// consecutive t-row groups, one per image.
//
//quq:hotpath stem of every forward; adds in place
func addPos(x, pos *tensor.Tensor, n int) {
	if x.Dim(0) != n*pos.Dim(0) || x.Dim(1) != pos.Dim(1) {
		panic(check.Invariantf("vit: %v tokens of %d images do not take a %v position table", x.Shape(), n, pos.Shape()))
	}
	xd, pd := x.Data(), pos.Data()
	for off := 0; off < len(xd); off += len(pd) {
		img := xd[off : off+len(pd)]
		for i, p := range pd {
			img[i] += p
		}
	}
}

// ViT implements the plain vision transformer and its DeiT variant.
type ViT struct {
	cfg    Config
	Patch  *Linear
	Cls    []float64
	Dist   []float64      // non-nil only for DeiT
	Reg    *tensor.Tensor // [Registers, Dim] high-norm register tokens; nil if none
	Pos    *tensor.Tensor
	Blocks []*Block
	Final  *LayerNorm
	Head   *Linear
}

// newViT allocates a zero-initialized ViT/DeiT for cfg.
func newViT(cfg Config) *ViT {
	m := &ViT{
		cfg:   cfg,
		Patch: NewLinear(cfg.PatchDim(), cfg.Dim),
		Cls:   make([]float64, cfg.Dim),
		Pos:   tensor.New(cfg.Tokens(), cfg.Dim),
		Final: NewLayerNorm(cfg.Dim),
		Head:  NewLinear(cfg.Dim, cfg.Classes),
	}
	if cfg.Variant == VariantDeiT {
		m.Dist = make([]float64, cfg.Dim)
	}
	if cfg.Registers > 0 {
		m.Reg = tensor.New(cfg.Registers, cfg.Dim)
	}
	for i := 0; i < cfg.Depth; i++ {
		m.Blocks = append(m.Blocks, NewBlock(cfg.Dim, cfg.Heads, cfg.MLPRatio))
	}
	return m
}

// Config implements Model.
func (m *ViT) Config() Config { return m.cfg }

// NumBlocks implements Model.
func (m *ViT) NumBlocks() int { return len(m.Blocks) }

// Forward implements Model.
func (m *ViT) Forward(img *tensor.Tensor, opts ForwardOpts) *tensor.Tensor {
	return m.ForwardBatch([]*tensor.Tensor{img}, opts)[0]
}

// ForwardBatch implements Model.
func (m *ViT) ForwardBatch(imgs []*tensor.Tensor, opts ForwardOpts) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(imgs))
	if len(imgs) == 0 {
		return out
	}
	sc := newScratch(opts)
	defer sc.release()
	dim := m.cfg.Dim
	patches := patchify(sc, imgs, m.cfg.PatchSize)
	patches = opts.site(Site{-1, "patch.in", KindGEMMIn}, patches)
	emb := applyLinear(opts, Site{-1, "patch.w", KindWeight}, m.Patch, sc.uninit(patches.Dim(0), dim), patches)
	sc.put(patches)

	extra := 1
	if m.Dist != nil {
		extra = 2
	}
	nreg := 0
	if m.Reg != nil {
		nreg = m.Reg.Dim(0)
	}
	np := emb.Dim(0) / len(imgs)
	t := np + extra + nreg
	tokens := sc.uninit(len(imgs)*t, dim)
	m.assemble(tokens, emb, np, extra, nreg)
	sc.put(emb)
	addPos(tokens, m.Pos, len(imgs))
	x := opts.site(Site{-1, "embed.out", KindActivation}, tokens)

	for i, b := range m.Blocks {
		y := b.forward(sc, x, len(imgs), i, opts)
		sc.put(x)
		x = y
	}
	feat := m.Final.ApplyInto(sc.uninit(x.Dim(0), dim), x)
	sc.put(x)
	feat = opts.site(Site{-1, "head.in", KindGEMMIn}, feat)

	// The head reads each image's class token — and, for DeiT inference,
	// its distillation token, averaging the two head outputs.
	cls := sc.uninit(len(imgs)*extra, dim)
	for b := range imgs {
		for r := 0; r < extra; r++ {
			copy(cls.Row(b*extra+r), feat.Row(b*t+r))
		}
	}
	sc.put(feat)
	logits := applyLinear(opts, Site{-1, "head.w", KindWeight}, m.Head, sc.ar.NewUninit(len(imgs)*extra, m.cfg.Classes), cls)
	sc.put(cls)
	for b := range out {
		out[b] = splitLogits(logits, b, extra)
	}
	sc.ar.Put(logits)
	return out
}

// assemble lays out each image's token sequence in its t rows of
// tokens: class token, distillation token if any, registers, then the
// image's np patch embeddings out of emb.
//
//quq:hotpath stem of every forward; the destination is the pass's scratch
func (m *ViT) assemble(tokens, emb *tensor.Tensor, np, extra, nreg int) {
	t := np + extra + nreg
	for b := 0; b*t < tokens.Dim(0); b++ {
		copy(tokens.Row(b*t), m.Cls)
		if m.Dist != nil {
			copy(tokens.Row(b*t+1), m.Dist)
		}
		for r := 0; r < nreg; r++ {
			copy(tokens.Row(b*t+extra+r), m.Reg.Row(r))
		}
		for r := 0; r < np; r++ {
			copy(tokens.Row(b*t+extra+nreg+r), emb.Row(b*np+r))
		}
	}
}

// splitLogits returns image b's logits out of the stacked head output
// ([B·extra, classes]) as a tensor of the caller's own — it never comes
// from the arena: the image's one row, or the mean of its two.
func splitLogits(logits *tensor.Tensor, b, extra int) *tensor.Tensor {
	out := tensor.New(logits.Dim(1))
	if extra == 1 {
		copy(out.Data(), logits.Row(b))
		return out
	}
	l0, l1 := logits.Row(2*b), logits.Row(2*b+1)
	for c := range out.Data() {
		out.Data()[c] = (l0[c] + l1[c]) / 2
	}
	return out
}

// ForEachWeight implements Model.
func (m *ViT) ForEachWeight(fn func(Site, *Linear)) {
	fn(Site{-1, "patch.w", KindWeight}, m.Patch)
	for i, b := range m.Blocks {
		b.weights(i, fn)
	}
	fn(Site{-1, "head.w", KindWeight}, m.Head)
}

// Params implements Model.
func (m *ViT) Params(fn func(name string, data []float64)) {
	fn("patch.w", m.Patch.W.Data())
	fn("patch.b", m.Patch.B)
	fn("cls", m.Cls)
	if m.Dist != nil {
		fn("dist", m.Dist)
	}
	if m.Reg != nil {
		fn("reg", m.Reg.Data())
	}
	fn("pos", m.Pos.Data())
	for i, b := range m.Blocks {
		b.params(fmt.Sprintf("block%02d", i), fn)
	}
	fn("final.g", m.Final.Gamma)
	fn("final.b", m.Final.Beta)
	fn("head.w", m.Head.W.Data())
	fn("head.b", m.Head.B)
}

// Clone implements Model.
func (m *ViT) Clone() Model {
	c := newViT(m.cfg)
	copyParams(m, c)
	return c
}

// copyParams copies every parameter of src into dst; the two models must
// share a configuration.
func copyParams(src, dst Model) {
	var bufs [][]float64
	src.Params(func(_ string, d []float64) { bufs = append(bufs, d) })
	i := 0
	dst.Params(func(name string, d []float64) {
		if len(d) != len(bufs[i]) {
			panic(check.Invariantf("vit: parameter %s size mismatch in copy", name))
		}
		copy(d, bufs[i])
		i++
	})
	if i != len(bufs) {
		panic(check.Invariant("vit: parameter count mismatch in copy"))
	}
}
