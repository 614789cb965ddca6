package vit

import (
	"fmt"
	"quq/internal/check"

	"quq/internal/tensor"
)

// Swin implements the hierarchical Swin transformer: window attention
// with cyclically shifted windows on alternating blocks, and 2×2 patch
// merging between stages. Two documented simplifications versus the
// original (DESIGN.md): no relative position bias (a learned absolute
// position embedding at the stem instead), and no attention mask after
// the cyclic shift — neither changes the quantization behaviour the
// paper evaluates.
type Swin struct {
	cfg    Config
	Patch  *Linear
	Pos    *tensor.Tensor
	Stages []*SwinStage
	Final  *LayerNorm
	Head   *Linear
}

// SwinStage is a run of blocks at one resolution, optionally followed by
// patch merging into the next stage's width.
type SwinStage struct {
	Blocks  []*Block
	MergeLN *LayerNorm // nil for the last stage
	Merge   *Linear    // [4*dim, 2*dim], nil for the last stage
}

// newSwin allocates a zero-initialized Swin for cfg.
func newSwin(cfg Config) *Swin {
	grid := cfg.gridSide()
	m := &Swin{
		cfg:   cfg,
		Patch: NewLinear(cfg.PatchDim(), cfg.StageDims[0]),
		Pos:   tensor.New(grid*grid, cfg.StageDims[0]),
	}
	for s, depth := range cfg.StageDepths {
		st := &SwinStage{}
		for i := 0; i < depth; i++ {
			st.Blocks = append(st.Blocks, NewBlock(cfg.StageDims[s], cfg.StageHeads[s], cfg.MLPRatio))
		}
		if s < len(cfg.StageDepths)-1 {
			st.MergeLN = NewLayerNorm(4 * cfg.StageDims[s])
			st.Merge = NewLinear(4*cfg.StageDims[s], cfg.StageDims[s+1])
		}
		m.Stages = append(m.Stages, st)
	}
	last := cfg.StageDims[len(cfg.StageDims)-1]
	m.Final = NewLayerNorm(last)
	m.Head = NewLinear(last, cfg.Classes)
	return m
}

// Config implements Model.
func (m *Swin) Config() Config { return m.cfg }

// NumBlocks implements Model.
func (m *Swin) NumBlocks() int {
	n := 0
	for _, s := range m.Stages {
		n += len(s.Blocks)
	}
	return n
}

// windowOrder returns the permutation that regroups a row-major g×g token
// grid (after a cyclic shift by `shift` tokens down and right) into
// window-major order for w×w windows: result[newIndex] = oldIndex.
func windowOrder(g, w, shift int) []int {
	order := make([]int, g*g)
	i := 0
	for wy := 0; wy < g/w; wy++ {
		for wx := 0; wx < g/w; wx++ {
			for y := 0; y < w; y++ {
				for x := 0; x < w; x++ {
					gy := (wy*w + y + shift) % g
					gx := (wx*w + x + shift) % g
					order[i] = gy*g + gx
					i++
				}
			}
		}
	}
	return order
}

// permuteRows fills dst (the shape of x, every row overwritten) with
// x's rows reordered within each consecutive len(order)-row group — one
// image's tokens — so row i of a group of dst is row order[i] of that
// group of x.
//
//quq:hotpath around every Swin block; the destination is the pass's scratch
func permuteRows(dst, x *tensor.Tensor, order []int) *tensor.Tensor {
	for base := 0; base < x.Dim(0); base += len(order) {
		for i, o := range order {
			copy(dst.Row(base+i), x.Row(base+o))
		}
	}
	return dst
}

// invertOrder returns the inverse permutation.
func invertOrder(order []int) []int {
	inv := make([]int, len(order))
	for i, o := range order {
		inv[o] = i
	}
	return inv
}

// Forward implements Model.
func (m *Swin) Forward(img *tensor.Tensor, opts ForwardOpts) *tensor.Tensor {
	return m.ForwardBatch([]*tensor.Tensor{img}, opts)[0]
}

// ForwardBatch implements Model. An image's windows are already
// independent sequences to a block, so a batch is simply more of them:
// the permutes, merges and pooling walk the stacked rows image by image.
func (m *Swin) ForwardBatch(imgs []*tensor.Tensor, opts ForwardOpts) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(imgs))
	if len(imgs) == 0 {
		return out
	}
	sc := newScratch(opts)
	defer sc.release()
	patches := patchify(sc, imgs, m.cfg.PatchSize)
	patches = opts.site(Site{-1, "patch.in", KindGEMMIn}, patches)
	x := applyLinear(opts, Site{-1, "patch.w", KindWeight}, m.Patch, sc.uninit(patches.Dim(0), m.cfg.StageDims[0]), patches)
	sc.put(patches)
	addPos(x, m.Pos, len(imgs))
	x = opts.site(Site{-1, "embed.out", KindActivation}, x)

	// next replaces x by the stage that consumed it, recycling x.
	next := func(y *tensor.Tensor) {
		sc.put(x)
		x = y
	}
	grid := m.cfg.gridSide()
	w := m.cfg.Window
	blk := 0
	for _, stage := range m.Stages {
		nWin := (grid / w) * (grid / w)
		for i, b := range stage.Blocks {
			shift := 0
			if i%2 == 1 {
				shift = w / 2
			}
			order := windowOrder(grid, w, shift)
			next(permuteRows(sc.uninit(x.Dim(0), x.Dim(1)), x, order))
			next(b.forward(sc, x, len(imgs)*nWin, blk, opts))
			next(permuteRows(sc.uninit(x.Dim(0), x.Dim(1)), x, invertOrder(order)))
			blk++
		}
		if stage.Merge != nil {
			next(mergePatches(sc.uninit(x.Dim(0)/4, 4*x.Dim(1)), x, grid))
			next(stage.MergeLN.ApplyInto(sc.uninit(x.Dim(0), x.Dim(1)), x))
			x = opts.site(Site{blk - 1, "merge.in", KindGEMMIn}, x)
			next(applyLinear(opts, Site{blk - 1, "merge.w", KindWeight}, stage.Merge, sc.uninit(x.Dim(0), stage.Merge.Out()), x))
			grid /= 2
			x = opts.site(Site{blk - 1, "merge.out", KindActivation}, x)
		}
	}

	next(m.Final.ApplyInto(sc.uninit(x.Dim(0), x.Dim(1)), x))
	x = opts.site(Site{-1, "head.in", KindGEMMIn}, x)

	// Global average pool over each image's tokens, then classify.
	pooled := meanPool(sc.uninit(len(imgs), x.Dim(1)), x)
	sc.put(x)
	logits := applyLinear(opts, Site{-1, "head.w", KindWeight}, m.Head, sc.ar.NewUninit(len(imgs), m.cfg.Classes), pooled)
	sc.put(pooled)
	for b := range out {
		out[b] = splitLogits(logits, b, 1)
	}
	sc.ar.Put(logits)
	return out
}

// meanPool fills row b of dst ([n, d]) with the mean of x's b-th group
// of x.Dim(0)/n consecutive rows, summed in row order.
//
// Its output is the one GEMM input of any architecture that no site
// quantizer sees: the "head.in" site quantizes the tokens before they
// are pooled, and a mean of grid points is off the grid. Swin's head is
// therefore the one float GEMM of a quantized forward — weights on
// their grid, activations not — on every engine: ptq.IntEngine declines
// it and the QUA simulator's runners do not take Swin at all.
//
//quq:hotpath Swin's pooling; the destination is the pass's scratch
func meanPool(dst, x *tensor.Tensor) *tensor.Tensor {
	t := x.Dim(0) / dst.Dim(0)
	for b := 0; b < dst.Dim(0); b++ {
		prow := dst.Row(b)
		for c := range prow {
			prow[c] = 0
		}
		for r := b * t; r < (b+1)*t; r++ {
			row := x.Row(r)
			for c := range prow {
				prow[c] += row[c]
			}
		}
		for c := range prow {
			prow[c] /= float64(t)
		}
	}
	return dst
}

// mergePatches concatenates each 2×2 neighbourhood of every image's
// row-major g×g token grid into one token of 4× width, [B·g², d] ->
// [B·g²/4, 4d], into dst (every element overwritten).
//
//quq:hotpath between Swin stages; the destination is the pass's scratch
func mergePatches(dst, x *tensor.Tensor, g int) *tensor.Tensor {
	d := x.Dim(1)
	if x.Dim(0)%(g*g) != 0 || g%2 != 0 {
		panic(check.Invariantf("vit: cannot merge %d tokens as %dx%d grids", x.Dim(0), g, g))
	}
	h := g / 2
	for b := 0; b*g*g < x.Dim(0); b++ {
		in, out := b*g*g, b*h*h
		for y := 0; y < h; y++ {
			for xx := 0; xx < h; xx++ {
				row := dst.Row(out + y*h + xx)
				copy(row[0:d], x.Row(in+(2*y)*g+2*xx))
				copy(row[d:2*d], x.Row(in+(2*y)*g+2*xx+1))
				copy(row[2*d:3*d], x.Row(in+(2*y+1)*g+2*xx))
				copy(row[3*d:4*d], x.Row(in+(2*y+1)*g+2*xx+1))
			}
		}
	}
	return dst
}

// ForEachWeight implements Model.
func (m *Swin) ForEachWeight(fn func(Site, *Linear)) {
	fn(Site{-1, "patch.w", KindWeight}, m.Patch)
	blk := 0
	for _, stage := range m.Stages {
		for _, b := range stage.Blocks {
			b.weights(blk, fn)
			blk++
		}
		if stage.Merge != nil {
			fn(Site{blk - 1, "merge.w", KindWeight}, stage.Merge)
		}
	}
	fn(Site{-1, "head.w", KindWeight}, m.Head)
}

// Params implements Model.
func (m *Swin) Params(fn func(name string, data []float64)) {
	fn("patch.w", m.Patch.W.Data())
	fn("patch.b", m.Patch.B)
	fn("pos", m.Pos.Data())
	blk := 0
	for s, stage := range m.Stages {
		for _, b := range stage.Blocks {
			b.params(fmt.Sprintf("block%02d", blk), fn)
			blk++
		}
		if stage.Merge != nil {
			fn(fmt.Sprintf("stage%d.mergeln.g", s), stage.MergeLN.Gamma)
			fn(fmt.Sprintf("stage%d.mergeln.b", s), stage.MergeLN.Beta)
			fn(fmt.Sprintf("stage%d.merge.w", s), stage.Merge.W.Data())
			fn(fmt.Sprintf("stage%d.merge.b", s), stage.Merge.B)
		}
	}
	fn("final.g", m.Final.Gamma)
	fn("final.b", m.Final.Beta)
	fn("head.w", m.Head.W.Data())
	fn("head.b", m.Head.B)
}

// Clone implements Model.
func (m *Swin) Clone() Model {
	c := newSwin(m.cfg)
	copyParams(m, c)
	return c
}
