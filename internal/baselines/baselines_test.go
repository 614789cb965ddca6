package baselines

import (
	"fmt"
	"math"
	"testing"

	"quq/internal/dist"
	"quq/internal/ptq"
	"quq/internal/quant"
	"quq/internal/rng"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// statsFor fabricates SiteStats from a sample slice laid out as rows of
// `cols` channels.
func statsFor(site vit.Site, xs []float64, cols int) *ptq.SiteStats {
	st := &ptq.SiteStats{Site: site}
	st.Samples = append([]float64(nil), xs...)
	st.SampleChans = make([]int32, len(xs))
	st.LastDim = cols
	st.ChanAbsMax = make([]float64, cols)
	st.Min, st.Max = xs[0], xs[0]
	for i, v := range xs {
		ch := i % cols
		st.SampleChans[i] = int32(ch)
		if a := math.Abs(v); a > st.ChanAbsMax[ch] {
			st.ChanAbsMax[ch] = a
		}
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	return st
}

func sampleMSE(q ptq.TensorQuantizer, xs []float64) float64 {
	in := tensor.FromSlice(append([]float64(nil), xs...), len(xs))
	out := q.Apply(in)
	var s float64
	for i, v := range xs {
		d := v - out.Data()[i]
		s += d * d
	}
	return s / float64(len(xs))
}

func uniformMSEOf(xs []float64, bits int) float64 {
	absmax := 0.0
	for _, v := range xs {
		if a := math.Abs(v); a > absmax {
			absmax = a
		}
	}
	return quant.UniformMSE(xs, quant.UniformDelta(absmax, bits), bits)
}

func TestMethodNames(t *testing.T) {
	names := map[string]ptq.Method{
		"BaseQ":        BaseQ{},
		"PTQ4ViT":      PTQ4ViT{},
		"APQ-ViT":      APQViT{},
		"FQ-ViT":       FQViT{},
		"BiScaled-FxP": BiScaled{},
	}
	for want, m := range names {
		if m.Name() != want {
			t.Errorf("Name() = %q, want %q", m.Name(), want)
		}
	}
}

func TestSiteClassifiers(t *testing.T) {
	if !isPostSoftmax(vit.Site{Name: "attn.softmax_out"}) || isPostSoftmax(vit.Site{Name: "attn.softmax_in"}) {
		t.Error("isPostSoftmax wrong")
	}
	if !isPostGELU(vit.Site{Name: "mlp.gelu_out"}) || isPostGELU(vit.Site{Name: "mlp.gelu_in"}) {
		t.Error("isPostGELU wrong")
	}
	for _, name := range []string{"resid1.out", "resid2.out", "embed.out", "attn.proj_out", "mlp.fc2_out", "merge.out"} {
		if !isResidualStream(vit.Site{Name: name}) {
			t.Errorf("isResidualStream(%s) = false", name)
		}
	}
	if isResidualStream(vit.Site{Name: "ln1.out"}) {
		t.Error("ln1.out misclassified as residual stream")
	}
}

func TestBaseQSearchesClipping(t *testing.T) {
	xs := dist.Sample(dist.PreAddition, 8192, rng.New(1))
	st := statsFor(vit.Site{Name: "resid1.out", Kind: vit.KindActivation}, xs, 64)
	q := BaseQ{}.CalibrateActivation(st, 6)
	if got, naive := sampleMSE(q, xs), uniformMSEOf(xs, 6); got > naive {
		t.Fatalf("BaseQ with search (%v) worse than naive absmax fit (%v)", got, naive)
	}
}

func TestTwinSoftmaxBeatsUniform(t *testing.T) {
	xs := dist.Sample(dist.PostSoftmax, 1<<14, rng.New(2))
	st := statsFor(vit.Site{Name: "attn.softmax_out", Kind: vit.KindGEMMIn}, xs, 64)
	q := PTQ4ViT{}.CalibrateActivation(st, 6)
	if _, ok := q.(twinSoftmaxQuantizer); !ok {
		t.Fatalf("post-softmax site got %T", q)
	}
	if got, uni := sampleMSE(q, xs), uniformMSEOf(xs, 6); got >= uni {
		t.Fatalf("twin softmax MSE %v not below uniform %v", got, uni)
	}
}

func TestTwinGELUBeatsUniform(t *testing.T) {
	xs := dist.Sample(dist.PostGELU, 1<<14, rng.New(3))
	st := statsFor(vit.Site{Name: "mlp.gelu_out", Kind: vit.KindGEMMIn}, xs, 64)
	q := PTQ4ViT{}.CalibrateActivation(st, 6)
	if _, ok := q.(twinGELUQuantizer); !ok {
		t.Fatalf("post-GELU site got %T", q)
	}
	if got, uni := sampleMSE(q, xs), uniformMSEOf(xs, 6); got >= uni {
		t.Fatalf("twin GELU MSE %v not below uniform %v", got, uni)
	}
}

func TestTwinSoftmaxStaysInRange(t *testing.T) {
	q := twinSoftmaxQuantizer{k: 3, bits: 6}
	for _, x := range []float64{0, 1e-6, 0.124, 0.126, 0.5, 1.0, 1.5} {
		v := q.value(x)
		if v < 0 || v > 1.0+1e-12 {
			t.Fatalf("twin softmax value(%v) = %v out of [0,1]", x, v)
		}
	}
}

func TestAPQAffineHandlesAsymmetry(t *testing.T) {
	// Shifted positive data: affine must beat symmetric uniform, whose
	// codes below zero are wasted.
	src := rng.New(4)
	xs := make([]float64, 8192)
	for i := range xs {
		xs[i] = 3 + src.Exp(0.5)
	}
	st := statsFor(vit.Site{Name: "x", Kind: vit.KindGEMMIn}, xs, 64)
	q := APQViT{}.CalibrateActivation(st, 6)
	if got, uni := sampleMSE(q, xs), uniformMSEOf(xs, 6); got >= uni/2 {
		t.Fatalf("affine MSE %v should be far below symmetric uniform %v on shifted data", got, uni)
	}
}

func TestFQViTLog2OnSoftmax(t *testing.T) {
	xs := dist.Sample(dist.PostSoftmax, 1<<14, rng.New(5))
	st := statsFor(vit.Site{Name: "attn.softmax_out", Kind: vit.KindGEMMIn}, xs, 64)
	q := FQViT{}.CalibrateActivation(st, 6)
	if _, ok := q.(log2Quantizer); !ok {
		t.Fatalf("post-softmax site got %T", q)
	}
	// Log2 quantization's defining property: bounded *relative* error
	// for the small attention probabilities that uniform quantization
	// zeroes out entirely (its absolute steps are coarse near one, so an
	// MSE comparison is not the right check).
	in := tensor.FromSlice(append([]float64(nil), xs...), len(xs))
	out := q.Apply(in)
	for i, v := range xs {
		if v < 1e-9 || v > 0.125 {
			continue
		}
		if rel := math.Abs(out.Data()[i]-v) / v; rel > 0.42 {
			t.Fatalf("log2 relative error %v at x=%v exceeds the half-step bound", rel, v)
		}
	}
}

func TestLog2QuantizerValues(t *testing.T) {
	q := log2Quantizer{bits: 4}
	x := tensor.FromSlice([]float64{1, 0.5, 0.25, 0.3, 0, -0.1, 1e-9, math.NaN()}, 8)
	out := q.Apply(x)
	if out.Data()[0] != 1 || out.Data()[1] != 0.5 || out.Data()[2] != 0.25 {
		t.Fatalf("exact powers wrong: %v", out.Data())
	}
	if out.Data()[4] != 0 || out.Data()[5] != 0 {
		t.Fatalf("non-positive values must map to 0: %v", out.Data())
	}
	if out.Data()[6] != 0 {
		t.Fatalf("underflow must map to 0, got %v", out.Data()[6])
	}
	if out.Data()[7] != 0 {
		t.Fatalf("NaN must map to 0, got %v", out.Data()[7])
	}
}

func TestFQViTPTFPerChannel(t *testing.T) {
	// Two channel populations: narrow (σ=0.1) and wide (σ=10). PTF must
	// give each channel usable resolution; per-tensor uniform cannot.
	src := rng.New(6)
	const cols = 8
	xs := make([]float64, 8192*cols)
	for i := range xs {
		sd := 0.1
		if i%cols == cols-1 {
			sd = 10
		}
		xs[i] = src.Gauss(0, sd)
	}
	st := statsFor(vit.Site{Name: "resid1.out", Kind: vit.KindActivation}, xs, cols)
	q := FQViT{}.CalibrateActivation(st, 6)
	ptf, ok := q.(ptfQuantizer)
	if !ok {
		t.Fatalf("residual site got %T", q)
	}
	// Narrow channels must get smaller effective deltas than wide ones.
	if ptf.shifts[0] >= ptf.shifts[cols-1] {
		t.Fatalf("shifts = %v: narrow channel not finer than wide", ptf.shifts)
	}
	// The decisive property is *relative* fidelity on narrow channels:
	// per-tensor uniform quantization erases them (relative error ≈ 1,
	// every value rounds to zero) while PTF keeps them at full per-
	// channel resolution.
	in := tensor.FromSlice(append([]float64(nil), xs...), len(xs)/cols, cols)
	outPTF := q.Apply(in.Clone())
	absmax := 0.0
	for _, v := range xs {
		if a := math.Abs(v); a > absmax {
			absmax = a
		}
	}
	outUni := ptq.QUQTensorQuantizer{Params: quant.ParamsForUniform(absmax/31, 6)}.Apply(in)
	relErr := func(out *tensor.Tensor, ch int) float64 {
		var num, den float64
		for i, v := range xs {
			if i%cols != ch {
				continue
			}
			d := v - out.Data()[i]
			num += d * d
			den += v * v
		}
		return num / den
	}
	if r := relErr(outPTF, 0); r > 0.01 {
		t.Fatalf("PTF narrow-channel relative error %v, want < 1%%", r)
	}
	if r := relErr(outUni, 0); r < 0.5 {
		t.Fatalf("uniform narrow-channel relative error %v — test premise broken", r)
	}
	// And the wide channel must not be worse than uniform's resolution
	// by more than the ceil-rounding factor (4× in MSE).
	if rp, ru := relErr(outPTF, cols-1), relErr(outUni, cols-1); rp > 4*ru+1e-12 {
		t.Fatalf("PTF wide-channel error %v vs uniform %v", rp, ru)
	}
}

func TestFQViTRowWiseWeights(t *testing.T) {
	// Columns with wildly different scales: row-wise (per-column)
	// quantization must keep per-column relative error bounded.
	src := rng.New(7)
	w := tensor.New(64, 4)
	scales := []float64{0.01, 0.1, 1, 10}
	for r := 0; r < 64; r++ {
		for c := 0; c < 4; c++ {
			w.Set(src.Gauss(0, scales[c]), r, c)
		}
	}
	orig := w.Clone()
	FQViT{}.QuantizeWeight(vit.Site{Name: "w", Kind: vit.KindWeight}, w, 6)
	for c := 0; c < 4; c++ {
		var num, den float64
		for r := 0; r < 64; r++ {
			d := w.At(r, c) - orig.At(r, c)
			num += d * d
			den += orig.At(r, c) * orig.At(r, c)
		}
		if den == 0 {
			continue
		}
		if rel := num / den; rel > 1e-2 {
			t.Fatalf("column %d relative error %v too high for row-wise quantization", c, rel)
		}
	}
}

func TestBiScaledStaticIndexTable(t *testing.T) {
	// Channel-structured outliers (BiScaled's home turf): the calibrated
	// table must flag the hot channel and keep fine resolution elsewhere.
	src := rng.New(8)
	const cols = 16
	n := 4096 * cols
	xs := make([]float64, n)
	for i := range xs {
		if i%cols == 3 {
			xs[i] = src.Gauss(0, 20)
		} else {
			xs[i] = src.Gauss(0, 0.5)
		}
	}
	st := statsFor(vit.Site{Name: "resid1.out", Kind: vit.KindActivation}, xs, cols)
	q := BiScaled{}.CalibrateActivation(st, 6).(biScaledQuantizer)
	if !q.outlierChan[3] {
		t.Fatalf("hot channel not flagged: %v", q.outlierChan)
	}
	if got, uni := sampleMSEChannels(q, xs, cols), uniformMSEOf(xs, 6); got >= uni/2 {
		t.Fatalf("BiScaled MSE %v should be well below uniform %v on channel outliers", got, uni)
	}
}

func sampleMSEChannels(q ptq.TensorQuantizer, xs []float64, cols int) float64 {
	in := tensor.FromSlice(append([]float64(nil), xs...), len(xs)/cols, cols)
	out := q.Apply(in)
	var s float64
	for i, v := range xs {
		d := v - out.Data()[i]
		s += d * d
	}
	return s / float64(len(xs))
}

func TestBiScaledClipsPositionalOutliers(t *testing.T) {
	// An outlier arriving in an unflagged channel at inference time is
	// clipped at the fine range — the failure mode the paper describes.
	q := biScaledQuantizer{fineDelta: 0.1, ratioLog: 4, bits: 6, outlierChan: make([]bool, 4)}
	q.outlierChan[0] = true
	in := tensor.FromSlice([]float64{50, 50, 0, 0}, 1, 4)
	out := q.Apply(in)
	// Channel 0 (flagged): coarse delta 1.6 covers 50 (clip at 31*1.6).
	if out.At(0, 0) < 40 {
		t.Fatalf("flagged channel clipped: %v", out.At(0, 0))
	}
	// Channel 1 (unflagged): clipped at fine range 3.1.
	if out.At(0, 1) > 3.2 {
		t.Fatalf("unflagged outlier not clipped: %v", out.At(0, 1))
	}
}

func TestWeightQuantizersPreserveShape(t *testing.T) {
	src := rng.New(9)
	for _, meth := range []ptq.Method{BaseQ{}, PTQ4ViT{}, APQViT{}, FQViT{}, BiScaled{}} {
		w := tensor.New(24, 8)
		for i := range w.Data() {
			w.Data()[i] = src.Gauss(0, 0.1)
		}
		orig := w.Clone()
		meth.QuantizeWeight(vit.Site{Name: "w", Kind: vit.KindWeight}, w, 8)
		if w.Dim(0) != 24 || w.Dim(1) != 8 {
			t.Fatalf("%s changed the weight shape", meth.Name())
		}
		if tensor.MSE(w, orig) == 0 {
			t.Fatalf("%s left weights bit-identical", meth.Name())
		}
		// 8-bit quantization must be a small perturbation.
		if rel := tensor.MSE(w, orig) / (orig.Std() * orig.Std()); rel > 1e-3 {
			t.Fatalf("%s weight error too large: %v", meth.Name(), rel)
		}
	}
}

// TestAllMethodsHandleDegenerateStats: statistics with no usable range —
// all zeros, or subnormals whose range divided by a code count
// underflows to a zero Δ — calibrate, at a plain site and at the sites
// with their own mechanism, to a quantizer whose outputs are finite and
// whose record the snapshot decoder accepts; a weight tensor of such
// values quantizes to finite values.
func TestAllMethodsHandleDegenerateStats(t *testing.T) {
	const tiny = math.SmallestNonzeroFloat64
	subnormal := make([]float64, 64)
	for i := range subnormal {
		subnormal[i] = []float64{tiny, -tiny, 0, 2 * tiny}[i%4]
	}
	finite := func(what string, xs []float64) {
		t.Helper()
		for _, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite output %v", what, xs)
			}
		}
	}
	for _, meth := range []ptq.Method{BaseQ{}, PTQ4ViT{}, APQViT{}, FQViT{}, BiScaled{}} {
		for name, xs := range map[string][]float64{"zero": make([]float64, 64), "subnormal": subnormal} {
			for _, site := range []vit.Site{
				{Name: "x", Kind: vit.KindGEMMIn},
				{Name: "mlp.gelu_out", Kind: vit.KindGEMMIn},
				{Name: "resid1.out", Kind: vit.KindActivation},
			} {
				what := meth.Name() + " " + site.Name + " on " + name + " stats"
				q := meth.CalibrateActivation(statsFor(site, xs, 8), 6)
				finite(what, q.Apply(tensor.FromSlice([]float64{0, 0.1, -0.1, tiny}, 4)).Data())
				tag, data, err := ptq.MarshalQuantizer(q)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if _, err := decodeRecord(tag, data); err != nil {
					t.Errorf("%s: its record does not decode: %v", what, err)
				}
			}
			w := tensor.FromSlice(append([]float64(nil), xs...), 8, 8)
			meth.QuantizeWeight(vit.Site{Name: "w", Kind: vit.KindWeight}, w, 6)
			finite(meth.Name()+" weights of "+name+" values", w.Data())
		}
	}
}

// decodeRecord decodes a quantizer record the way the snapshot store
// does: this package's tags after ptq's.
func decodeRecord(tag string, data []byte) (ptq.TensorQuantizer, error) {
	if q, ok, err := ptq.UnmarshalQuantizer(tag, data); ok {
		return q, err
	}
	if q, ok, err := UnmarshalQuantizer(tag, data); ok {
		return q, err
	}
	return nil, fmt.Errorf("unknown quantizer tag %q", tag)
}

// TestAffineQuantizerSaturates: a value past the grid lands on the end
// it is past, however far — including quotients past int64, whose
// conversion Go leaves to the platform.
func TestAffineQuantizerSaturates(t *testing.T) {
	a := affineQuantizer{scale: 1, zp: 32, bits: 6} // levels 0..63 are -32..31
	for _, c := range []struct{ in, want float64 }{
		{0.3, 0}, {2.5, 2}, {-3, -3}, {40, 31}, {-40, -32},
		{math.Inf(1), 31}, {math.Inf(-1), -32}, {1e300, 31}, {-1e300, -32},
		{math.NaN(), -32},
	} {
		if got := a.value(c.in); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("value(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestApplyQuantizesInPlace: every site quantizer every method builds
// rewrites the tensor it is handed and returns it.
func TestApplyQuantizesInPlace(t *testing.T) {
	xs := dist.Sample(dist.PreAddition, 512, rng.New(10))
	for _, meth := range []ptq.Method{BaseQ{}, PTQ4ViT{}, APQViT{}, FQViT{}, BiScaled{}} {
		for _, site := range []vit.Site{
			{Name: "attn.softmax_out", Kind: vit.KindGEMMIn},
			{Name: "mlp.gelu_out", Kind: vit.KindGEMMIn},
			{Name: "resid1.out", Kind: vit.KindActivation},
			{Name: "ln1.out", Kind: vit.KindGEMMIn},
		} {
			q := meth.CalibrateActivation(statsFor(site, xs, 8), 6)
			x := tensor.FromSlice(append([]float64(nil), xs...), len(xs)/8, 8)
			if q.Apply(x) != x {
				t.Errorf("%s %s (%T): Apply returned a tensor other than its input", meth.Name(), site.Name, q)
			}
			if tensor.MSE(x, tensor.FromSlice(xs, len(xs)/8, 8)) == 0 {
				t.Errorf("%s %s (%T): Apply left its input as it was", meth.Name(), site.Name, q)
			}
		}
	}
}
