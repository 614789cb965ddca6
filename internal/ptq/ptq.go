// Package ptq implements the post-training-quantization pipeline the QUQ
// paper's accuracy experiments run on: calibration-statistics collection
// over a small image set, per-tensor quantizer construction by a
// pluggable Method, weight quantization on a cloned model, and a
// quantized executor that rewrites every Figure 1 quantization point
// during inference. Every site quantizer, QUQ's and the baselines',
// rewrites the tensor it is handed in place (TensorQuantizer).
//
// Two regimes mirror the paper's tables: Partial quantizes only GEMM
// inputs and weights (Table 2), Full additionally quantizes every
// remaining activation — residual-connection, LayerNorm, Softmax and
// GELU inputs (Table 3).
//
// Calibration is a DAG with one function per node, and each loop exists
// once: Collect (statistics; depends on the model and images only),
// QuantizeWeights and CalibrateSites (depend on statistics, method and
// bits, never on the regime — Partial's sites are the vit.KindGEMMIn
// subset of Full's), and Assemble (one regime's QuantizedModel over
// those results, sharing them). Quantize walks the DAG for one key;
// internal/serve builds each node once and assembles sibling keys from
// it. Nothing here is shared mutable state: a Method is used by one
// goroutine at a time, and every node's result is read-only once built.
//
// Collect, the largest node, runs the calibration images as stacked
// 4-image forwards and folds each chunk's site tensors into the
// statistics on a pool of min(GOMAXPROCS, sites) goroutines while the
// next chunk's forward runs. Its statistics are bit-identical to
// observing one image at a time, whatever GOMAXPROCS: a stacked site
// tensor is its images' tensors concatenated, every site owns its
// reservoir source, and each site is observed serially, in order.
package ptq

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"quq/internal/quant"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// Regime selects which Figure 1 sites are quantized.
type Regime int

const (
	// Partial quantizes GEMM inputs and weights only; the remaining
	// activations stay in floating point (the paper's Table 2 setting).
	Partial Regime = iota
	// Full quantizes every activation in the data flow (Table 3).
	Full
)

func (r Regime) String() string {
	if r == Partial {
		return "partial"
	}
	return "full"
}

// covers reports whether the regime quantizes the given site kind.
func (r Regime) covers(k vit.SiteKind) bool {
	switch k {
	case vit.KindWeight, vit.KindGEMMIn:
		return true
	case vit.KindActivation:
		return r == Full
	}
	return false
}

// TensorQuantizer fake-quantizes activation tensors at one site.
type TensorQuantizer interface {
	// Apply quantizes x in place and returns x. The forward owns the
	// tensors it hands a quantizer; a caller that still needs the
	// unquantized values clones first.
	Apply(x *tensor.Tensor) *tensor.Tensor
}

// Method builds quantizers from calibration statistics. Implementations:
// QUQ (this package) and the comparison schemes in internal/baselines.
type Method interface {
	// Name is the row label used in the experiment tables.
	Name() string
	// CalibrateActivation builds the quantizer for one activation site.
	CalibrateActivation(stats *SiteStats, bits int) TensorQuantizer
	// QuantizeWeight fake-quantizes a weight tensor in place (the
	// pipeline passes a cloned model's weights).
	QuantizeWeight(site vit.Site, w *tensor.Tensor, bits int)
}

// WeightParamsRecorder is an optional Method extension: during Quantize,
// the pipeline installs a callback through which the method reports the
// exact quantizer parameter set used for each weight tensor. The
// parameters land in QuantizedModel.WeightParams, which the integer
// forward engine (NewIntEngine) needs to recover resident integer
// operands from the fake-quantized weights. Installing nil removes the
// callback.
type WeightParamsRecorder interface {
	RecordWeightParams(fn func(site vit.Site, p *quant.Params))
}

// InputAwareWeightQuantizer is an optional Method extension: when a
// method implements it, the pipeline supplies the per-input-channel
// second moments E[x_d²] of the weight's GEMM input — the diagonal-
// Hessian proxy — so the method can minimize expected output error
// instead of raw weight error (the paper's layer-wise Hessian-guided
// grid search).
type InputAwareWeightQuantizer interface {
	QuantizeWeightAware(site vit.Site, w *tensor.Tensor, bits int, inputSq []float64)
}

// weightInputSite maps a weight site to the activation site feeding its
// GEMM.
func weightInputSite(s vit.Site) (vit.Site, bool) {
	switch s.Name {
	case "attn.qkv.w":
		return vit.Site{Block: s.Block, Name: "ln1.out", Kind: vit.KindGEMMIn}, true
	case "attn.proj.w":
		return vit.Site{Block: s.Block, Name: "attn.proj_in", Kind: vit.KindGEMMIn}, true
	case "mlp.fc1.w":
		return vit.Site{Block: s.Block, Name: "ln2.out", Kind: vit.KindGEMMIn}, true
	case "mlp.fc2.w":
		return vit.Site{Block: s.Block, Name: "mlp.gelu_out", Kind: vit.KindGEMMIn}, true
	case "merge.w":
		return vit.Site{Block: s.Block, Name: "merge.in", Kind: vit.KindGEMMIn}, true
	case "patch.w":
		return vit.Site{Block: -1, Name: "patch.in", Kind: vit.KindGEMMIn}, true
	case "head.w":
		return vit.Site{Block: -1, Name: "head.in", Kind: vit.KindGEMMIn}, true
	}
	return vit.Site{}, false
}

// CalibOptions configures Quantize.
type CalibOptions struct {
	Bits   int
	Regime Regime
	// Images is the calibration set; the paper uses 32 images.
	Images []*tensor.Tensor
	// MaxSamplesPerSite caps the per-site reservoir (0 = default 32768).
	MaxSamplesPerSite int
}

// QuantizedModel is a model prepared for quantized inference: a clone
// with fake-quantized weights plus per-site activation quantizers.
//
// Concurrency: a QuantizedModel is immutable after Quantize (or
// Assemble) returns, and Forward/ForwardOpts/ForwardBatch are safe for
// concurrent use by multiple goroutines — which is also why two models
// assembled over the same Weights and quantizer values may serve side by
// side. The contract rests on three audited properties (each covered by
// TestQuantizedForwardConcurrent):
//
//   - vit.Model.Forward never mutates model parameters or the input
//     image — every intermediate lives in per-call tensors;
//   - every TensorQuantizer.Apply implementation (QUQ and the baselines)
//     reads only calibration-time state and mutates only tensors the
//     calling forward owns: the forward hands a quantizer nothing but
//     intermediates it allocated itself, never the image, a parameter
//     or another call's tensor;
//   - Acts is written once during Assemble and only read afterwards; the
//     per-site table ForwardOpts reads is resolved from it once, under a
//     sync.Once, on the first forward.
//
// Callers must not mutate Model, Acts or quantizer internals after
// sharing the model between goroutines. The one documented exception is
// the integer-path engine: its pointer is atomic, so SetIntPath may
// install or remove the engine while Forward calls are in flight, and
// each forward pass uses whichever engine it loads at entry.
type QuantizedModel struct {
	Model  vit.Model
	Bits   int
	Regime Regime
	Method string
	// Acts maps site keys to their activation quantizers.
	Acts map[string]TensorQuantizer
	// WeightParams maps weight-site keys to the exact quantizer
	// parameters used to fake-quantize that weight tensor, for methods
	// that report them (see WeightParamsRecorder); nil otherwise.
	WeightParams map[string]*quant.Params

	// engine is the optional integer forward engine; see SetIntPath.
	// intDeclines is where every engine built for this model counts the
	// GEMMs it declined; see IntDeclines.
	engine      atomic.Pointer[IntEngine]
	intDeclines atomic.Int64

	// sites is Acts keyed the way the forward names a site, so the
	// quantizer seam formats no key; resolved on the first forward.
	resolve sync.Once
	sites   map[siteID]TensorQuantizer
}

// siteID is what names an activation site within one model.
type siteID struct {
	block int
	name  string
}

// SetIntPath installs (on=true) or removes (on=false) the fully-integer
// weight path: every weight GEMM runs on resident pre-shifted int64
// operands through the tensor kernel layer instead of rehydrating
// weights to float64. Enabling is all-or-nothing — it fails unless every
// weight site can be prepared (QUQ method with recorded weight params,
// QUQ activation quantizers on every GEMM input, accumulators within
// bounds). The toggle is safe under concurrent Forward traffic.
func (q *QuantizedModel) SetIntPath(on bool) error {
	if !on {
		q.engine.Store(nil)
		return nil
	}
	e, err := NewIntEngine(q)
	if err != nil {
		return err
	}
	q.engine.Store(e)
	return nil
}

// IntPath reports whether the integer forward engine is installed.
func (q *QuantizedModel) IntPath() bool { return q.engine.Load() != nil }

// IntDeclines reports how many weight GEMMs the model's integer engines
// have handed back to the float path over its lifetime (see
// IntEngine.Declines); it does not restart when SetIntPath swaps engines.
func (q *QuantizedModel) IntDeclines() int64 { return q.intDeclines.Load() }

// Quantize calibrates method on m over the given images and returns the
// quantized model. The input model is not modified.
//
// It is the one-key walk over the calibration DAG — Collect, then
// QuantizeWeights and CalibrateSites over those statistics, then
// Assemble. A caller building several keys of one model (internal/serve)
// runs each node once and assembles every key from the shared results.
func Quantize(m vit.Model, method Method, opts CalibOptions) (*QuantizedModel, error) {
	if opts.Bits < 3 {
		return nil, fmt.Errorf("ptq: bit-width %d too small", opts.Bits)
	}
	if len(opts.Images) == 0 {
		return nil, fmt.Errorf("ptq: no calibration images")
	}
	stats := Collect(m, opts.Images, opts.MaxSamplesPerSite)
	gemmIn := CalibrateSites(stats, vit.KindGEMMIn, method, opts.Bits)
	var acts map[string]TensorQuantizer
	if opts.Regime.covers(vit.KindActivation) {
		acts = CalibrateSites(stats, vit.KindActivation, method, opts.Bits)
	}
	w := QuantizeWeights(m, stats, method, opts.Bits)
	return Assemble(w, opts.Regime, gemmIn, acts), nil
}

// CalibrateSites builds method's quantizer for every activation site of
// one kind (vit.KindGEMMIn or vit.KindActivation) — the package's one
// activation-calibration loop. The result depends on (statistics,
// method, bits) and not on the regime: Partial uses the KindGEMMIn set,
// Full both. method is called from this goroutine only; concurrent
// callers each bring their own.
func CalibrateSites(stats map[string]*SiteStats, kind vit.SiteKind, method Method, bits int) map[string]TensorQuantizer {
	out := make(map[string]TensorQuantizer)
	for key, st := range stats {
		if st.Site.Kind == kind {
			out[key] = method.CalibrateActivation(st, bits)
		}
	}
	return out
}

// Weights is the regime-independent half of a calibration: a clone of
// the model with every weight tensor fake-quantized, and the exact
// parameter sets behind them when the method reports those. Read-only
// once built, so any number of QuantizedModels may share one.
type Weights struct {
	Model  vit.Model
	Method string
	Bits   int
	// Params maps weight-site keys to their quantizer parameters for
	// methods implementing WeightParamsRecorder; nil otherwise.
	Params map[string]*quant.Params
}

// QuantizeWeights clones m and fake-quantizes every weight tensor of
// the clone — the package's one weight-quantization loop. Input-aware
// methods are handed E[x²] of each weight's GEMM input out of stats. m is
// not modified; method is called from this goroutine only.
func QuantizeWeights(m vit.Model, stats map[string]*SiteStats, method Method, bits int) *Weights {
	w := &Weights{Model: m.Clone(), Method: method.Name(), Bits: bits}
	if rec, ok := method.(WeightParamsRecorder); ok {
		w.Params = make(map[string]*quant.Params)
		rec.RecordWeightParams(func(site vit.Site, p *quant.Params) {
			w.Params[site.Key()] = p
		})
		defer rec.RecordWeightParams(nil)
	}
	aware, isAware := method.(InputAwareWeightQuantizer)
	w.Model.ForEachWeight(func(site vit.Site, l *vit.Linear) {
		if isAware {
			if inSite, ok := weightInputSite(site); ok {
				if st, ok := stats[inSite.Key()]; ok {
					if sq := st.ChanMeanSq(); sq != nil {
						aware.QuantizeWeightAware(site, l.W, bits, sq)
						return
					}
				}
			}
		}
		method.QuantizeWeight(site, l.W, bits)
	})
	return w
}

// Assemble builds the QuantizedModel of one regime over already-built
// calibration results: w's model and parameters are shared, not copied,
// and the quantizer values of gemmIn — and of acts, which only Full
// reads — are shared under a site map of the model's own.
func Assemble(w *Weights, regime Regime, gemmIn, acts map[string]TensorQuantizer) *QuantizedModel {
	qm := &QuantizedModel{
		Model:        w.Model,
		Bits:         w.Bits,
		Regime:       regime,
		Method:       w.Method,
		Acts:         make(map[string]TensorQuantizer, len(gemmIn)+len(acts)),
		WeightParams: w.Params,
	}
	for key, tq := range gemmIn {
		qm.Acts[key] = tq
	}
	if regime.covers(vit.KindActivation) {
		for key, tq := range acts {
			qm.Acts[key] = tq
		}
	}
	return qm
}

// Forward runs quantized inference on one image.
func (q *QuantizedModel) Forward(img *tensor.Tensor) *tensor.Tensor {
	return q.ForwardOpts(img, vit.ForwardOpts{})
}

// ForwardOpts runs quantized inference with extra instrumentation (the
// attention sink for Figure 7). The site quantizers fill the forward's
// Quantize seam; any Tap in opts sees each site after its quantizer.
func (q *QuantizedModel) ForwardOpts(img *tensor.Tensor, opts vit.ForwardOpts) *tensor.Tensor {
	return q.forwardStacked([]*tensor.Tensor{img}, opts)[0]
}

// forwardStacked is the one quantized forward: images, one or many, as
// one batch-major pass of the model with the site quantizers and the
// installed engine in opts' seams.
func (q *QuantizedModel) forwardStacked(images []*tensor.Tensor, opts vit.ForwardOpts) []*tensor.Tensor {
	if opts.Engine == nil {
		if e := q.engine.Load(); e != nil {
			opts.Engine = e
		}
	}
	q.resolve.Do(q.resolveSites)
	opts.Quantize = q.quantizeSite
	return q.Model.ForwardBatch(images, opts)
}

// resolveSites builds sites from Acts.
func (q *QuantizedModel) resolveSites() {
	q.sites = make(map[siteID]TensorQuantizer, len(q.Acts))
	for key, tq := range q.Acts {
		if block, name, ok := vit.ParseSiteKey(key); ok {
			q.sites[siteID{block, name}] = tq
		}
	}
}

// quantizeSite implements vit.SiteQuantizer: the site's quantizer, if it
// has one, rewrites x in place.
//
//quq:hotpath runs at every site of every quantized forward; quantizes in place
func (q *QuantizedModel) quantizeSite(site vit.Site, x *tensor.Tensor) {
	if tq, ok := q.sites[siteID{site.Block, site.Name}]; ok {
		tq.Apply(x)
	}
}

// Classifier is anything that maps an image to logits: both vit.Model
// (via ModelClassifier) and *QuantizedModel satisfy it.
type Classifier interface {
	Forward(img *tensor.Tensor) *tensor.Tensor
}

// ModelClassifier adapts a plain FP32 model to the Classifier interface.
type ModelClassifier struct{ M vit.Model }

// Forward implements Classifier.
func (c ModelClassifier) Forward(img *tensor.Tensor) *tensor.Tensor {
	return c.M.Forward(img, vit.ForwardOpts{})
}

// Accuracy returns top-1 accuracy of the classifier on labelled samples.
// An empty or length-mismatched (images, labels) pair returns 0, never
// NaN — mismatches are caller bugs, but a metric that silently turns the
// whole table into NaN is worse than one that reads as zero.
func Accuracy(c Classifier, images []*tensor.Tensor, labels []int) float64 {
	if len(images) == 0 || len(images) != len(labels) {
		return 0
	}
	hit := 0
	for i, img := range images {
		if c.Forward(img).ArgMax() == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(images))
}

// SearchUniformDelta returns the Δ in {α·absmax/(2^(b−1)−1)} over the
// grid minimizing MSE on xs — the grid-search step the paper applies to
// every method ("the optimization techniques used in QUQ are also
// applied"). An empty grid means {1.0}; data too small to give a
// positive Δ, Δ = 1. Each candidate is scored on the tap kernel of its
// quant.ParamsForUniform, by raw sums of squared error: quant.UniformMSE's
// mean would round them once more and could turn a strict win into a
// tie.
func SearchUniformDelta(xs []float64, bits int, grid []float64) float64 {
	absmax := 0.0
	for _, v := range xs {
		if a := math.Abs(v); a > absmax {
			absmax = a
		}
	}
	base := absmax / float64(int64(1)<<(bits-1)-1)
	if base == 0 {
		return 1
	}
	if len(grid) == 0 {
		grid = []float64{1}
	}
	best, bestSSE := base, math.Inf(1)
	for _, alpha := range grid {
		d := base * alpha
		if !(d > 0) {
			continue
		}
		k := quant.ParamsForUniform(d, bits).Kernel()
		if sse := k.SumSqErr(0, xs); sse < bestSSE {
			best, bestSSE = d, sse
		}
	}
	return best
}

// DefaultAlphaGrid is the clipping-search grid shared by the methods.
var DefaultAlphaGrid = []float64{0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00}
