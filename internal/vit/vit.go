package vit

import (
	"fmt"
	"quq/internal/check"

	"quq/internal/tensor"
)

// Model is the common interface of the ViT/DeiT and Swin implementations:
// a classifier over single images with instrumentable internals.
//
// Concurrency: Forward, Config, NumBlocks and Features treat the model
// as read-only — both implementations allocate every intermediate tensor
// per call and never write to parameter storage — so a model may serve
// concurrent Forward calls from multiple goroutines. Mutating operations
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
	// plain inference.
	Forward(img *tensor.Tensor, opts ForwardOpts) *tensor.Tensor
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
	return patchify(scratch{}, img, ps)
}

// patchify is Patchify into a tensor of sc's (the zero scratch
// allocates): each patch row is the image's ps-pixel runs, channel by
// channel and line by line, copied from the flat data.
func patchify(sc scratch, img *tensor.Tensor, ps int) *tensor.Tensor {
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	if h%ps != 0 || w%ps != 0 {
		panic(check.Invariantf("vit: %dx%d image not divisible into %d-pixel patches", h, w, ps))
	}
	gy, gx := h/ps, w/ps
	out := sc.uninit(gy*gx, c*ps*ps)
	pix := img.Data()
	for py := 0; py < gy; py++ {
		for px := 0; px < gx; px++ {
			row := out.Row(py*gx + px)
			for ch := 0; ch < c; ch++ {
				for y := 0; y < ps; y++ {
					src := (ch*h+py*ps+y)*w + px*ps
					copy(row[:ps], pix[src:src+ps])
					row = row[ps:]
				}
			}
		}
	}
	return out
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
	sc := newScratch(opts)
	defer sc.release()
	dim := m.cfg.Dim
	patches := patchify(sc, img, m.cfg.PatchSize)
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
	tokens := sc.uninit(emb.Dim(0)+extra+nreg, dim)
	copy(tokens.Row(0), m.Cls)
	if m.Dist != nil {
		copy(tokens.Row(1), m.Dist)
	}
	for r := 0; r < nreg; r++ {
		copy(tokens.Row(extra+r), m.Reg.Row(r))
	}
	for r := 0; r < emb.Dim(0); r++ {
		copy(tokens.Row(r+extra+nreg), emb.Row(r))
	}
	sc.put(emb)
	tokens.AddInPlace(m.Pos)
	x := opts.site(Site{-1, "embed.out", KindActivation}, tokens)

	for i, b := range m.Blocks {
		y := b.forward(sc, x, 1, i, opts)
		sc.put(x)
		x = y
	}
	feat := m.Final.ApplyInto(sc.uninit(x.Dim(0), dim), x)
	sc.put(x)
	feat = opts.site(Site{-1, "head.in", KindGEMMIn}, feat)

	// The head reads the class token — and, for DeiT inference, the
	// distillation token, averaging the two head outputs. The logits are
	// the caller's: they never come from the arena.
	cls := sc.uninit(extra, dim)
	for r := 0; r < extra; r++ {
		copy(cls.Row(r), feat.Row(r))
	}
	sc.put(feat)
	logits := applyLinear(opts, Site{-1, "head.w", KindWeight}, m.Head, tensor.New(extra, m.cfg.Classes), cls)
	sc.put(cls)
	if m.Dist == nil {
		return logits.Reshape(m.cfg.Classes)
	}
	out := tensor.New(m.cfg.Classes)
	for c := range out.Data() {
		out.Data()[c] = (logits.At(0, c) + logits.At(1, c)) / 2
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
