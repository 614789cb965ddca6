package accel

import (
	"fmt"

	"quq/internal/quant"
	"quq/internal/qub"
	"quq/internal/sfu"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// ModelRunner executes an entire plain ViT on the QUA datapath: the patch
// embedding and head GEMMs run as QUB integer matrix multiplies, every
// transformer block runs on a BlockRunner, and the final LayerNorm runs
// on the integer SFU. Only the input image and the output logits cross
// the float boundary. The chain is provided for the plain ViT, the
// architecture the paper's accelerator discussion walks through.
type ModelRunner struct {
	m   *vit.ViT
	arr ArrayConfig

	patchIn  *quant.Params // patch vectors
	embed    *layer        // patch embedding, requantized into the token-stream site
	embedOut qub.Registers
	blocks   []*BlockRunner
	finalLN  *sfu.LayerNormUnit
	head     *layer
}

// NewModelRunner prepares the integer pipeline for a served model: model
// is a Full-regime QUQ model's fake-quantized weight clone and params
// its site-key → parameters table (ptq.QuantizedModel.SiteParams). The
// runner executes exactly those quantizers — it calibrates nothing — and
// a site missing from the table is an error naming its key.
func NewModelRunner(model vit.Model, params map[string]*quant.Params, arr ArrayConfig) (*ModelRunner, error) {
	m, ok := model.(*vit.ViT)
	if !ok || m.Config().Variant != vit.VariantViT {
		return nil, fmt.Errorf("accel: ModelRunner supports the plain ViT variant")
	}
	s := sites{params: params}
	patchIn, patchW, embedOut := s.get(-1, "patch.in"), s.get(-1, "patch.w"), s.get(-1, "embed.out")
	lastOut, headIn, headW := s.get(len(m.Blocks)-1, "resid2.out"), s.get(-1, "head.in"), s.get(-1, "head.w")
	r := &ModelRunner{m: m, arr: arr, patchIn: patchIn, embedOut: s.regs(embedOut)}
	if s.err != nil {
		return nil, s.err
	}

	var err error
	if r.embed, err = newLayer(m.Patch, 0, m.Patch.Out(), patchIn, patchW, embedOut); err != nil {
		return nil, fmt.Errorf("accel: patch embedding GEMM: %w", err)
	}
	for bi, blk := range m.Blocks {
		br, err := NewBlockRunner(blk, bi, params, arr)
		if err != nil {
			return nil, fmt.Errorf("accel: block %d: %w", bi, err)
		}
		r.blocks = append(r.blocks, br)
	}
	if r.finalLN, err = sfu.NewLayerNormUnit(lastOut, headIn, m.Final.Gamma, m.Final.Beta); err != nil {
		return nil, fmt.Errorf("accel: final layernorm: %w", err)
	}
	if r.head, err = newLayer(m.Head, 0, m.Head.Out(), headIn, headW, nil); err != nil {
		return nil, fmt.Errorf("accel: head GEMM: %w", err)
	}
	return r, nil
}

// Run classifies one image entirely on the integer datapath and returns
// the logits plus the cycle accounting.
func (r *ModelRunner) Run(img *tensor.Tensor) (*tensor.Tensor, *RunStats, error) {
	cfg := r.m.Config()
	stats := &RunStats{}

	// Patch embedding GEMM.
	patches := vit.Patchify(img, cfg.PatchSize)
	embW, err := r.embed.run(r.arr, qub.EncodeTensor(r.patchIn, patches.Data()), patches.Dim(0), stats)
	if err != nil {
		return nil, nil, err
	}
	emb := qub.DecodeTensor(embW.Out, r.embedOut)

	// Token assembly (cls, registers, position embeddings) happens at the
	// token buffer in the quantized domain: the additions run on the
	// element-wise SFU; here the decoded integers are reassembled and
	// re-encoded with the block-input quantizer.
	nreg, t := cfg.Registers, cfg.Tokens()
	tokens := tensor.New(t, cfg.Dim)
	copy(tokens.Row(0), r.m.Cls)
	for i := 0; i < nreg; i++ {
		copy(tokens.Row(1+i), r.m.Reg.Row(i))
	}
	copy(tokens.Data()[(1+nreg)*cfg.Dim:], emb)
	tokens.AddInPlace(r.m.Pos)

	// Blocks hand each other words: block i's output site is block i+1's
	// input site.
	x := qub.EncodeTensor(r.blocks[0].in, tokens.Data())
	for bi, br := range r.blocks {
		if x, err = br.run(x, t, cfg.Dim, stats); err != nil {
			return nil, nil, fmt.Errorf("accel: block %d: %w", bi, err)
		}
	}

	// Final LayerNorm (SFU) on the class token, then the head GEMM. The
	// logits leave the datapath at the decode boundary — accumulator ×
	// unit + bias — exactly as the serving integer engine emits them.
	res, err := r.head.run(r.arr, r.finalLN.Row(x[:cfg.Dim]), 1, stats)
	if err != nil {
		return nil, nil, err
	}
	logits := tensor.New(cfg.Classes)
	unit := r.head.accUnit()
	for j, acc := range res.Acc {
		//quq:float-ok decode boundary: one scale of the exact integer accumulator plus the float bias, outside the integer pipeline
		logits.Data()[j] = float64(acc)*unit + r.m.Head.B[j]
	}
	return logits, stats, nil
}
