package accel

import (
	"fmt"
	"math"

	"quq/internal/quant"
	"quq/internal/qub"
	"quq/internal/sfu"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// sites resolves site keys against the served parameter table — the
// site-key → quantizer-parameters map of a Full-regime QUQ model,
// activation and weight sites alike. The first key the table lacks, or
// the first parameter set QUB cannot represent, becomes the construction
// error; accel never calibrates a stand-in.
type sites struct {
	params map[string]*quant.Params
	err    error
}

func (s *sites) get(block int, name string) *quant.Params {
	key := vit.Site{Block: block, Name: name}.Key()
	p := s.params[key]
	if p == nil && s.err == nil {
		s.err = fmt.Errorf("accel: no quantizer parameters for site %s", key)
	}
	return p
}

func (s *sites) regs(p *quant.Params) (r qub.Registers) {
	if s.err == nil {
		r, s.err = qub.RegistersFor(p)
	}
	return r
}

// newEpilogue configures the one GEMM epilogue of the runners — the
// array's quantization unit: the layer bias added in accumulator units,
// then requantization into pout's code space — for accumulators worth
// accUnit each (Δx·Δw, times 1/√d_h for the attention scores).
func newEpilogue(pout *quant.Params, accUnit float64, bias []float64) (*QuantizeUnit, error) {
	qu, err := NewQuantizeUnit(pout, accUnit)
	if err != nil || bias == nil {
		return qu, err
	}
	qu.bias = make([]int64, len(bias))
	for j, b := range bias {
		// RoundToEven, not +0.5 truncation, which would round every
		// negative bias toward zero by one accumulator unit.
		//quq:float-ok one-time weight-loading conversion of the float bias into integer accumulator units; hardware does this at model-load, not inference
		qu.bias[j] = int64(math.RoundToEven(b / accUnit))
	}
	return qu, nil
}

// layer is one weight GEMM resident on the array: the weight operand,
// recovered once from the served model's fake-quantized tensor the way
// the serving integer engine recovers it (PrepareQuantized: exactly on
// the quantizer's grid, or an error), the input site's registers, and
// the epilogue into the output site.
type layer struct {
	w  *PreparedOperand
	rx qub.Registers
	qu *QuantizeUnit // nil for the classification head, whose accumulators leave the datapath
}

// newLayer prepares columns [lo, hi) of l under weight quantizer pw, fed
// by a site quantized with px and requantized into pout (nil: none).
func newLayer(l *vit.Linear, lo, hi int, px, pw, pout *quant.Params) (*layer, error) {
	w, err := PrepareQuantized(pw, l.W.Data(), l.W.Dim(0), l.W.Dim(1))
	if err != nil {
		return nil, err
	}
	rx, err := qub.RegistersFor(px)
	if err != nil {
		return nil, err
	}
	ly := &layer{w: w.SliceCols(lo, hi), rx: rx}
	if pout != nil {
		ly.qu, err = newEpilogue(pout, ly.accUnit(), l.B[lo:hi])
	}
	return ly, err
}

// accUnit is the real value of one accumulator unit of the layer, Δx·Δw.
//
//quq:float-ok product of two power-of-two base deltas is exact and feeds requantizer configuration and the decode boundary, not the datapath
func (l *layer) accUnit() float64 { return l.rx.BaseDelta * l.w.Delta }

// run multiplies x ([m, w.Rows] words of the input site) by the resident
// weights through the epilogue and charges the array's schedule to stats.
func (l *layer) run(arr ArrayConfig, x []qub.Word, m int, stats *RunStats) (*GEMMResult, error) {
	res, err := arr.GEMMPrepared(x, l.rx, l.w, m, l.w.Rows, l.qu)
	if err == nil {
		stats.charge(res)
	}
	return res, err
}

// BlockRunner executes one transformer block of a served model entirely
// on the QUA datapath: every GEMM runs as a QUB integer matrix multiply
// with integer requantization, and LayerNorm/Softmax/GELU/residual-add
// run on the integer SFUs. No floating-point value enters the data path
// between the input encoding and the output decoding. Every quantizer is
// the served one; the runner calibrates nothing.
type BlockRunner struct {
	heads int
	arr   ArrayConfig

	in      *quant.Params // the block-input site: what Run encodes with
	outRegs qub.Registers // the block-output site: what Run decodes with

	ln1, ln2   *sfu.LayerNormUnit
	softmax    *sfu.Unit
	gelu       *sfu.Unit
	add1, add2 *sfu.AddUnit

	// The fused QKV weight is split into its three column groups so each
	// feeds its own quantization unit.
	q, k, v, proj, fc1, fc2 *layer

	// The attention GEMMs multiply two activation streams.
	rQ, rK, rV, rProbs qub.Registers
	scores, ctx        *QuantizeUnit
}

// RunStats aggregates the cycle accounting of one execution.
type RunStats struct {
	GEMMCycles int64
	MACs       int64
}

func (s *RunStats) charge(res *GEMMResult) {
	s.GEMMCycles += res.Stats.Cycles
	s.MACs += res.Stats.MACs
}

// NewBlockRunner builds the runner for block index of a plain ViT from
// what is served: blk is that block of the model's fake-quantized weight
// clone and params the model's site-key → parameters table. The block's
// input site is the previous block's output, or the token embedding for
// block 0. A site missing from the table is an error naming its key.
func NewBlockRunner(blk *vit.Block, index int, params map[string]*quant.Params, arr ArrayConfig) (*BlockRunner, error) {
	s := sites{params: params}
	inName := "resid2.out"
	if index == 0 {
		inName = "embed.out" // block -1 is the stem
	}
	in := s.get(index-1, inName)
	at := func(name string) *quant.Params { return s.get(index, name) }
	ln1Out, pQ, pK, pV := at("ln1.out"), at("attn.q"), at("attn.k"), at("attn.v")
	smIn, smOut, projIn, projOut := at("attn.softmax_in"), at("attn.softmax_out"), at("attn.proj_in"), at("attn.proj_out")
	resid1, ln2Out, geluIn, geluOut := at("resid1.out"), at("ln2.out"), at("mlp.gelu_in"), at("mlp.gelu_out")
	fc2Out, resid2 := at("mlp.fc2_out"), at("resid2.out")
	wQKV, wProj, wFC1, wFC2 := at("attn.qkv.w"), at("attn.proj.w"), at("mlp.fc1.w"), at("mlp.fc2.w")
	r := &BlockRunner{heads: blk.Heads, arr: arr, in: in,
		rQ: s.regs(pQ), rK: s.regs(pK), rV: s.regs(pV), rProbs: s.regs(smOut), outRegs: s.regs(resid2)}
	if s.err != nil {
		return nil, s.err
	}

	var err error
	if r.ln1, err = sfu.NewLayerNormUnit(in, ln1Out, blk.LN1.Gamma, blk.LN1.Beta); err != nil {
		return nil, fmt.Errorf("accel: ln1 unit: %w", err)
	}
	if r.ln2, err = sfu.NewLayerNormUnit(resid1, ln2Out, blk.LN2.Gamma, blk.LN2.Beta); err != nil {
		return nil, fmt.Errorf("accel: ln2 unit: %w", err)
	}
	if r.softmax, err = sfu.NewUnit(smIn, smOut); err != nil {
		return nil, fmt.Errorf("accel: softmax unit: %w", err)
	}
	if r.gelu, err = sfu.NewUnit(geluIn, geluOut); err != nil {
		return nil, fmt.Errorf("accel: gelu unit: %w", err)
	}
	if r.add1, err = sfu.NewAddUnit(in, projOut, resid1); err != nil {
		return nil, fmt.Errorf("accel: residual adder 1: %w", err)
	}
	if r.add2, err = sfu.NewAddUnit(resid1, fc2Out, resid2); err != nil {
		return nil, fmt.Errorf("accel: residual adder 2: %w", err)
	}

	dim := blk.QKV.In()
	gemm := func(site string, l *vit.Linear, lo, hi int, px, pw, pout *quant.Params) *layer {
		ly, lerr := newLayer(l, lo, hi, px, pw, pout)
		if lerr != nil && err == nil {
			err = fmt.Errorf("accel: %s GEMM: %w", site, lerr)
		}
		return ly
	}
	r.q = gemm("attn.q", blk.QKV, 0, dim, ln1Out, wQKV, pQ)
	r.k = gemm("attn.k", blk.QKV, dim, 2*dim, ln1Out, wQKV, pK)
	r.v = gemm("attn.v", blk.QKV, 2*dim, 3*dim, ln1Out, wQKV, pV)
	r.proj = gemm("attn.proj", blk.Proj, 0, dim, projIn, wProj, projOut)
	r.fc1 = gemm("mlp.fc1", blk.FC1, 0, blk.FC1.Out(), ln2Out, wFC1, geluIn)
	r.fc2 = gemm("mlp.fc2", blk.FC2, 0, dim, geluOut, wFC2, fc2Out)
	if err != nil {
		return nil, err
	}
	//quq:float-ok 1/√d_h is a compile-time constant of the head geometry, folded into the requantizer configuration with the exact power-of-two Δ product — not a runtime datapath value
	scoreUnit := r.rQ.BaseDelta * r.rK.BaseDelta * (1 / math.Sqrt(float64(dim/blk.Heads)))
	if r.scores, err = newEpilogue(smIn, scoreUnit, nil); err != nil {
		return nil, fmt.Errorf("accel: attention score GEMM: %w", err)
	}
	//quq:float-ok accumulator-unit derivation is requantizer configuration (exact power-of-two product), computed once at construction
	if r.ctx, err = newEpilogue(projIn, r.rProbs.BaseDelta*r.rV.BaseDelta, nil); err != nil {
		return nil, fmt.Errorf("accel: attention context GEMM: %w", err)
	}
	return r, nil
}

// attn multiplies two activation streams — x ([m,k], registers rx) by w
// ([k,n], registers rw) — through the epilogue qu.
func (r *BlockRunner) attn(x []qub.Word, rx qub.Registers, w []qub.Word, rw qub.Registers,
	m, k, n int, qu *QuantizeUnit, stats *RunStats) ([]qub.Word, error) {

	res, err := r.arr.GEMM(x, rx, w, rw, m, k, n, qu)
	if err != nil {
		return nil, err
	}
	stats.charge(res)
	return res.Out, nil
}

// Run executes the block on input x ([T, dim], floating point at the
// boundary) and returns the decoded output. The input is encoded with
// the block-input quantizer; everything in between stays integer.
func (r *BlockRunner) Run(x *tensor.Tensor) (*tensor.Tensor, *RunStats, error) {
	stats := &RunStats{}
	t, dim := x.Dim(0), x.Dim(1)
	out, err := r.run(qub.EncodeTensor(r.in, x.Data()), t, dim, stats)
	if err != nil {
		return nil, nil, err
	}
	return tensor.FromSlice(qub.DecodeTensor(out, r.outRegs), t, dim), stats, nil
}

// run is Run between the boundaries: xw holds the [t, dim] words of the
// block-input site, the result the words of the block-output site.
func (r *BlockRunner) run(xw []qub.Word, t, dim int, stats *RunStats) ([]qub.Word, error) {
	dh := dim / r.heads

	h1 := rowWise(xw, dim, r.ln1.Row)

	// QKV projection: q, k and v carry separate quantizers, so the GEMM
	// runs as three column groups, each fanned into its own quantization
	// unit (hardware shares the accumulators; the cycle model charges
	// each group's tile schedule).
	q, err := r.q.run(r.arr, h1, t, stats)
	if err != nil {
		return nil, err
	}
	k, err := r.k.run(r.arr, h1, t, stats)
	if err != nil {
		return nil, err
	}
	v, err := r.v.run(r.arr, h1, t, stats)
	if err != nil {
		return nil, err
	}

	// Attention per head: scores = Q·Kᵀ/√dh -> softmax SFU -> ·V.
	ctx := make([]qub.Word, t*dim)
	for hd := 0; hd < r.heads; hd++ {
		qh := sliceCols(q.Out, t, dim, hd*dh, (hd+1)*dh)                         // [t, dh]
		khT := transposeWords(sliceCols(k.Out, t, dim, hd*dh, (hd+1)*dh), t, dh) // [dh, t]
		scores, err := r.attn(qh, r.rQ, khT, r.rK, t, dh, t, r.scores, stats)
		if err != nil {
			return nil, err
		}
		probs := rowWise(scores, t, r.softmax.Softmax)
		vh := sliceCols(v.Out, t, dim, hd*dh, (hd+1)*dh) // [t, dh]
		ctxH, err := r.attn(probs, r.rProbs, vh, r.rV, t, t, dh, r.ctx, stats)
		if err != nil {
			return nil, err
		}
		// Scatter head context into [t, dim].
		for row := 0; row < t; row++ {
			copy(ctx[row*dim+hd*dh:row*dim+(hd+1)*dh], ctxH[row*dh:(row+1)*dh])
		}
	}

	projOut, err := r.proj.run(r.arr, ctx, t, stats)
	if err != nil {
		return nil, err
	}

	// Residual 1.
	x1 := r.add1.Add(xw, projOut.Out)

	// LayerNorm 2 + MLP.
	hid, err := r.fc1.run(r.arr, rowWise(x1, dim, r.ln2.Row), t, stats)
	if err != nil {
		return nil, err
	}
	mlpOut, err := r.fc2.run(r.arr, r.gelu.GELU(hid.Out), t, stats)
	if err != nil {
		return nil, err
	}

	// Residual 2.
	return r.add2.Add(x1, mlpOut.Out), nil
}

// rowWise applies a row-wise SFU to every width-long row of x.
func rowWise(x []qub.Word, width int, unit func([]qub.Word) []qub.Word) []qub.Word {
	out := make([]qub.Word, 0, len(x))
	for lo := 0; lo < len(x); lo += width {
		out = append(out, unit(x[lo:lo+width])...)
	}
	return out
}

// sliceCols extracts columns [lo, hi) of a row-major [rows, cols] word
// matrix into a new [rows, hi-lo] matrix.
func sliceCols(w []qub.Word, rows, cols, lo, hi int) []qub.Word {
	out := make([]qub.Word, rows*(hi-lo))
	for r := 0; r < rows; r++ {
		copy(out[r*(hi-lo):(r+1)*(hi-lo)], w[r*cols+lo:r*cols+hi])
	}
	return out
}

// transposeWords transposes a row-major [rows, cols] word matrix.
func transposeWords(w []qub.Word, rows, cols int) []qub.Word {
	out := make([]qub.Word, len(w))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out[c*rows+r] = w[r*cols+c]
		}
	}
	return out
}
