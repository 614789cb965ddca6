package vit

import (
	"math"
	"quq/internal/check"

	"quq/internal/mathx"
	"quq/internal/tensor"
)

// Linear is a dense layer y = xW + b with W of shape [in, out].
type Linear struct {
	W *tensor.Tensor
	B []float64
}

// NewLinear allocates a zero-initialized layer.
func NewLinear(in, out int) *Linear {
	return &Linear{W: tensor.New(in, out), B: make([]float64, out)}
}

// In returns the input width.
func (l *Linear) In() int { return l.W.Dim(0) }

// Out returns the output width.
func (l *Linear) Out() int { return l.W.Dim(1) }

// Apply computes xW + b for x of shape [n, in], allocating the result.
func (l *Linear) Apply(x *tensor.Tensor) *tensor.Tensor {
	return l.ApplyInto(tensor.New(x.Dim(0), l.Out()), x)
}

// ApplyInto computes xW + b into dst of shape [n, out], which typically
// comes from a scratch arena. The bias add is fused into the GEMM
// epilogue (same operations in the same order as MatMul followed by
// AddRowVector, one less pass over dst).
func (l *Linear) ApplyInto(dst, x *tensor.Tensor) *tensor.Tensor {
	if x.Dim(1) != l.In() {
		panic(check.Invariantf("vit: linear input width %d, want %d", x.Dim(1), l.In()))
	}
	return tensor.MatMulBiasInto(dst, x, l.W, l.B)
}

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies the learned affine transform.
type LayerNorm struct {
	Gamma, Beta []float64
	Eps         float64
}

// NewLayerNorm returns an identity-initialized LayerNorm over dim
// features.
func NewLayerNorm(dim int) *LayerNorm {
	g := make([]float64, dim)
	for i := range g {
		g[i] = 1
	}
	return &LayerNorm{Gamma: g, Beta: make([]float64, dim), Eps: 1e-6}
}

// Apply normalizes x of shape [n, dim] row-wise into a new tensor.
func (ln *LayerNorm) Apply(x *tensor.Tensor) *tensor.Tensor {
	return ln.ApplyInto(tensor.New(x.Dim(0), x.Dim(1)), x)
}

// ApplyInto normalizes x row-wise into dst of the same shape, which
// typically comes from a scratch arena; every element is overwritten.
func (ln *LayerNorm) ApplyInto(dst, x *tensor.Tensor) *tensor.Tensor {
	n, d := x.Dim(0), x.Dim(1)
	if d != len(ln.Gamma) {
		panic(check.Invariantf("vit: layernorm width %d, want %d", d, len(ln.Gamma)))
	}
	if dst.Dim(0) != n || dst.Dim(1) != d {
		panic(check.Invariantf("vit: layernorm destination %v, want [%d %d]", dst.Shape(), n, d))
	}
	for r := 0; r < n; r++ {
		row := x.Row(r)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(d)
		var ss float64
		for _, v := range row {
			dv := v - mean
			ss += dv * dv
		}
		inv := 1 / math.Sqrt(ss/float64(d)+ln.Eps)
		orow := dst.Row(r)
		for c, v := range row {
			orow[c] = (v-mean)*inv*ln.Gamma[c] + ln.Beta[c]
		}
	}
	return dst
}

// Block is one transformer encoder block: pre-norm multi-head
// self-attention and a GELU MLP, each wrapped in a residual connection.
type Block struct {
	Heads int
	LN1   *LayerNorm
	QKV   *Linear // [dim, 3*dim]
	Proj  *Linear // [dim, dim]
	LN2   *LayerNorm
	FC1   *Linear // [dim, mlp]
	FC2   *Linear // [mlp, dim]
}

// NewBlock allocates a zero-initialized block.
func NewBlock(dim, heads, mlpRatio int) *Block {
	return &Block{
		Heads: heads,
		LN1:   NewLayerNorm(dim),
		QKV:   NewLinear(dim, 3*dim),
		Proj:  NewLinear(dim, dim),
		LN2:   NewLayerNorm(dim),
		FC1:   NewLinear(dim, dim*mlpRatio),
		FC2:   NewLinear(dim*mlpRatio, dim),
	}
}

// Forward runs the block on x ([S, dim], where S = nSeq·T is nSeq
// independent sequences of T tokens laid out contiguously — the images of
// the batch for ViT/DeiT, their windows for Swin). blk is the global block index
// used in tap site names. The input is assumed to have been tapped by the
// caller as the previous block's residual output; it is read, never
// written. The result is the caller's to keep.
func (b *Block) Forward(x *tensor.Tensor, nSeq, blk int, opts ForwardOpts) *tensor.Tensor {
	sc := newScratch(opts)
	defer sc.release()
	return b.forward(sc, x, nSeq, blk, opts)
}

// forward is Forward on the enclosing pass's scratch: every intermediate
// is put back the moment it is dead, and the result is left for the
// caller to put once the next stage has consumed it.
func (b *Block) forward(sc scratch, x *tensor.Tensor, nSeq, blk int, opts ForwardOpts) *tensor.Tensor {
	dim := x.Dim(1)
	s := x.Dim(0)
	if s%nSeq != 0 {
		panic(check.Invariantf("vit: %d rows not divisible into %d sequences", s, nSeq))
	}
	t := s / nSeq
	heads := b.Heads
	if dim%heads != 0 {
		// The head bands must tile the width, or ctx keeps columns no
		// head writes.
		panic(check.Invariantf("vit: width %d not divisible into %d heads", dim, heads))
	}
	dh := dim / heads
	scale := 1 / math.Sqrt(float64(dh))
	ar := sc.ar

	h := b.LN1.ApplyInto(sc.uninit(s, dim), x)
	h = opts.site(Site{blk, "ln1.out", KindGEMMIn}, h)
	qkvOut := applyLinear(opts, Site{blk, "attn.qkv.w", KindWeight}, b.QKV, ar.NewUninit(s, 3*dim), h)
	sc.put(h)

	// Split into Q, K, V tensors of shape [S, dim].
	q, k, v := sc.uninit(s, dim), sc.uninit(s, dim), sc.uninit(s, dim)
	for r := 0; r < s; r++ {
		row := qkvOut.Row(r)
		copy(q.Row(r), row[:dim])
		copy(k.Row(r), row[dim:2*dim])
		copy(v.Row(r), row[2*dim:])
	}
	ar.Put(qkvOut)
	q = opts.site(Site{blk, "attn.q", KindGEMMIn}, q)
	k = opts.site(Site{blk, "attn.k", KindGEMMIn}, k)
	v = opts.site(Site{blk, "attn.v", KindGEMMIn}, v)

	// Attention scores for every (sequence, head) pair, flattened to
	// [nSeq*heads*T, T] so the whole tensor shares one quantizer.
	scores := sc.uninit(nSeq*heads*t, t)
	attnScores(ar, scores, q, k, nSeq, heads, t, dh, scale)
	sc.put(q)
	sc.put(k)
	scores = sc.writable(opts.site(Site{blk, "attn.softmax_in", KindActivation}, scores))
	mathx.SoftmaxRows(scores.Data(), t)
	if opts.Attn != nil {
		opts.Attn(blk, scores)
	}
	scores = opts.site(Site{blk, "attn.softmax_out", KindGEMMIn}, scores)

	// Context: P·V per (sequence, head), reassembled to [S, dim].
	ctx := sc.uninit(s, dim)
	attnContext(ar, ctx, scores, v, nSeq, heads, t, dh)
	sc.put(scores)
	sc.put(v)
	ctx = opts.site(Site{blk, "attn.proj_in", KindGEMMIn}, ctx)
	o := applyLinear(opts, Site{blk, "attn.proj.w", KindWeight}, b.Proj, sc.uninit(s, dim), ctx)
	sc.put(ctx)
	o = opts.site(Site{blk, "attn.proj_out", KindActivation}, o)

	r1 := tensor.AddInto(sc.uninit(s, dim), x, o)
	sc.put(o)
	r1 = opts.site(Site{blk, "resid1.out", KindActivation}, r1)

	h = b.LN2.ApplyInto(sc.uninit(s, dim), r1)
	h = opts.site(Site{blk, "ln2.out", KindGEMMIn}, h)
	f := applyLinear(opts, Site{blk, "mlp.fc1.w", KindWeight}, b.FC1, sc.uninit(s, b.FC1.Out()), h)
	sc.put(h)
	f = sc.writable(opts.site(Site{blk, "mlp.gelu_in", KindActivation}, f))
	mathx.GeluSlice(f.Data())
	f = opts.site(Site{blk, "mlp.gelu_out", KindGEMMIn}, f)
	h = applyLinear(opts, Site{blk, "mlp.fc2.w", KindWeight}, b.FC2, sc.uninit(s, dim), f)
	sc.put(f)
	h = opts.site(Site{blk, "mlp.fc2_out", KindActivation}, h)

	out := tensor.AddInto(sc.uninit(s, dim), r1, h)
	sc.put(h)
	sc.put(r1)
	return opts.site(Site{blk, "resid2.out", KindActivation}, out)
}

// packHead copies one head's column band (col0 .. col0+dh) of t
// consecutive src rows starting at row0 into the contiguous [t, dh]
// scratch dst, so the per-head GEMM runs on dense row-major operands.
//
//quq:hotpath per-forward attention inner loop; scratch is arena-backed, no allocations here
func packHead(dst, src *tensor.Tensor, row0, col0 int) {
	t, dh := dst.Dim(0), dst.Dim(1)
	for i := 0; i < t; i++ {
		copy(dst.Row(i), src.Row(row0 + i)[col0:col0+dh])
	}
}

// attnScores fills scores ([nSeq·heads·T, T]) with the scaled Q·Kᵀ
// logits of every (sequence, head) pair: each head's Q and K column
// bands are packed into contiguous arena scratch, multiplied on the
// tiled kernel, and scaled into the destination rows. Element values are
// bit-identical to the scalar reference (one ascending-k dot product per
// element, then a single multiply by scale); vit tests assert this
// against the pre-kernel-layer loop.
//
//quq:hotpath per-forward attention inner loop; scratch is arena-backed, no allocations here
func attnScores(ar *tensor.Arena, scores, q, k *tensor.Tensor, nSeq, heads, t, dh int, scale float64) {
	qh := ar.NewUninit(t, dh)
	kh := ar.NewUninit(t, dh)
	sh := ar.NewUninit(t, t)
	for sq := 0; sq < nSeq; sq++ {
		for hd := 0; hd < heads; hd++ {
			packHead(qh, q, sq*t, hd*dh)
			packHead(kh, k, sq*t, hd*dh)
			tensor.MatMulTInto(sh, qh, kh)
			base := (sq*heads + hd) * t
			for i := 0; i < t; i++ {
				srow := scores.Row(base + i)
				for j, d := range sh.Row(i) {
					srow[j] = d * scale
				}
			}
		}
	}
	ar.Put(sh)
	ar.Put(kh)
	ar.Put(qh)
}

// attnContext fills ctx ([S, dim]) with the P·V product of every
// (sequence, head) pair: the head's probability block and V column band
// are packed into arena scratch, multiplied on the tiled kernel, and
// scattered back into the head's columns. The reference loop skipped
// p == 0 terms; that skip is bit-neutral for the finite probabilities
// softmax produces (adding ±0 products never changes an accumulator),
// so results are bit-identical — vit tests assert it.
//
//quq:hotpath per-forward attention inner loop; scratch is arena-backed, no allocations here
func attnContext(ar *tensor.Arena, ctx, scores, v *tensor.Tensor, nSeq, heads, t, dh int) {
	vh := ar.NewUninit(t, dh)
	ph := ar.NewUninit(t, t)
	ch := ar.NewUninit(t, dh)
	for sq := 0; sq < nSeq; sq++ {
		for hd := 0; hd < heads; hd++ {
			packHead(vh, v, sq*t, hd*dh)
			base := (sq*heads + hd) * t
			copy(ph.Data(), scores.Data()[base*t:(base+t)*t])
			tensor.MatMulInto(ch, ph, vh)
			for i := 0; i < t; i++ {
				copy(ctx.Row(sq*t + i)[hd*dh:(hd+1)*dh], ch.Row(i))
			}
		}
	}
	ar.Put(ch)
	ar.Put(ph)
	ar.Put(vh)
}

// weights enumerates the block's GEMM weight tensors with their site
// names.
func (b *Block) weights(blk int, fn func(Site, *Linear)) {
	fn(Site{blk, "attn.qkv.w", KindWeight}, b.QKV)
	fn(Site{blk, "attn.proj.w", KindWeight}, b.Proj)
	fn(Site{blk, "mlp.fc1.w", KindWeight}, b.FC1)
	fn(Site{blk, "mlp.fc2.w", KindWeight}, b.FC2)
}

// params enumerates every parameter slice of the block for serialization
// and training, in a stable order.
func (b *Block) params(prefix string, fn func(name string, data []float64)) {
	fn(prefix+".ln1.g", b.LN1.Gamma)
	fn(prefix+".ln1.b", b.LN1.Beta)
	fn(prefix+".qkv.w", b.QKV.W.Data())
	fn(prefix+".qkv.b", b.QKV.B)
	fn(prefix+".proj.w", b.Proj.W.Data())
	fn(prefix+".proj.b", b.Proj.B)
	fn(prefix+".ln2.g", b.LN2.Gamma)
	fn(prefix+".ln2.b", b.LN2.Beta)
	fn(prefix+".fc1.w", b.FC1.W.Data())
	fn(prefix+".fc1.b", b.FC1.B)
	fn(prefix+".fc2.w", b.FC2.W.Data())
	fn(prefix+".fc2.b", b.FC2.B)
}
