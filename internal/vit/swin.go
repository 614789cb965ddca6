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

// permuteRows fills dst (the shape of x, every row overwritten) with x's
// rows reordered so row i of dst is row order[i] of x.
func permuteRows(dst, x *tensor.Tensor, order []int) *tensor.Tensor {
	for i, o := range order {
		copy(dst.Row(i), x.Row(o))
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
	sc := newScratch(opts)
	defer sc.release()
	patches := patchify(sc, img, m.cfg.PatchSize)
	patches = opts.site(Site{-1, "patch.in", KindGEMMIn}, patches)
	x := applyLinear(opts, Site{-1, "patch.w", KindWeight}, m.Patch, sc.uninit(patches.Dim(0), m.cfg.StageDims[0]), patches)
	sc.put(patches)
	x.AddInPlace(m.Pos)
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
			next(b.forward(sc, x, nWin, blk, opts))
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

	// Global average pool over tokens, then classify. The logits are the
	// caller's: they never come from the arena.
	pooled := sc.uninit(1, x.Dim(1))
	prow := pooled.Row(0)
	for c := range prow {
		prow[c] = 0
	}
	for r := 0; r < x.Dim(0); r++ {
		row := x.Row(r)
		for c := range prow {
			prow[c] += row[c]
		}
	}
	for c := range prow {
		prow[c] /= float64(x.Dim(0))
	}
	sc.put(x)
	logits := applyLinear(opts, Site{-1, "head.w", KindWeight}, m.Head, tensor.New(1, m.cfg.Classes), pooled)
	sc.put(pooled)
	return logits.Reshape(m.cfg.Classes)
}

// mergePatches concatenates each 2×2 neighbourhood of a row-major g×g
// token grid into one token of 4× width, [g², d] -> [g²/4, 4d], into dst
// (every element overwritten).
func mergePatches(dst, x *tensor.Tensor, g int) *tensor.Tensor {
	d := x.Dim(1)
	if x.Dim(0) != g*g || g%2 != 0 {
		panic(check.Invariantf("vit: cannot merge %d tokens as a %dx%d grid", x.Dim(0), g, g))
	}
	h := g / 2
	for y := 0; y < h; y++ {
		for xx := 0; xx < h; xx++ {
			row := dst.Row(y*h + xx)
			copy(row[0:d], x.Row((2*y)*g+2*xx))
			copy(row[d:2*d], x.Row((2*y)*g+2*xx+1))
			copy(row[2*d:3*d], x.Row((2*y+1)*g+2*xx))
			copy(row[3*d:4*d], x.Row((2*y+1)*g+2*xx+1))
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
