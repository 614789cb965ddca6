package ptq

import (
	"math"
	"testing"

	"quq/internal/data"
	"quq/internal/quant"
	"quq/internal/rng"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// nano builds a small, fast model plus workloads for pipeline tests.
func nano(t *testing.T) (vit.Model, []*tensor.Tensor, []*tensor.Tensor) {
	t.Helper()
	cfg := vit.ViTNano
	m := vit.New(cfg, 99)
	calib := data.CalibrationSet(cfg, 6, 1)
	eval := data.Images(cfg, 10, 2)
	return m, calib, eval
}

func TestRegimeCovers(t *testing.T) {
	if !Partial.covers(vit.KindGEMMIn) || !Partial.covers(vit.KindWeight) {
		t.Fatal("partial must cover GEMM inputs and weights")
	}
	if Partial.covers(vit.KindActivation) {
		t.Fatal("partial must not cover red activations")
	}
	if !Full.covers(vit.KindActivation) {
		t.Fatal("full must cover red activations")
	}
}

func TestCollectGathersAllSites(t *testing.T) {
	m, calib, _ := nano(t)
	stats := Collect(m, calib, 1024)
	if len(stats) == 0 {
		t.Fatal("no stats collected")
	}
	// Expect the per-block sites for every block plus stem/head.
	blocks := m.NumBlocks()
	wantPerBlock := []string{"ln1.out", "attn.q", "attn.softmax_in", "attn.softmax_out", "resid2.out", "mlp.gelu_out"}
	for b := 0; b < blocks; b++ {
		for _, name := range wantPerBlock {
			found := false
			for _, st := range stats {
				if st.Site.Block == b && st.Site.Name == name {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("missing stats for block %d site %s", b, name)
			}
		}
	}
	for _, st := range stats {
		if st.Seen() == 0 {
			t.Errorf("site %v saw no data", st.Site)
		}
		if len(st.Samples) != len(st.SampleChans) {
			t.Errorf("site %v: samples/chans length mismatch", st.Site)
		}
		if st.Min > st.Max {
			t.Errorf("site %v: min %v > max %v", st.Site, st.Min, st.Max)
		}
	}
}

func TestCollectReservoirCap(t *testing.T) {
	m, calib, _ := nano(t)
	stats := Collect(m, calib, 128)
	for _, st := range stats {
		// Cap plus the two appended extremes.
		if len(st.Samples) > 130 {
			t.Fatalf("site %v reservoir has %d samples, cap 128", st.Site, len(st.Samples))
		}
	}
}

func TestCollectKeepsExactExtremes(t *testing.T) {
	m, calib, _ := nano(t)
	stats := Collect(m, calib, 64)
	for _, st := range stats {
		foundMin, foundMax := false, false
		for _, v := range st.Samples {
			if v == st.Min {
				foundMin = true
			}
			if v == st.Max {
				foundMax = true
			}
		}
		if !foundMin || !foundMax {
			t.Fatalf("site %v: extremes not present in reservoir", st.Site)
		}
	}
}

func TestQuantizeValidation(t *testing.T) {
	m, calib, _ := nano(t)
	if _, err := Quantize(m, NewQUQ(), CalibOptions{Bits: 2, Regime: Full, Images: calib}); err == nil {
		t.Fatal("accepted 2-bit quantization")
	}
	if _, err := Quantize(m, NewQUQ(), CalibOptions{Bits: 8, Regime: Full}); err == nil {
		t.Fatal("accepted empty calibration set")
	}
}

func TestQuantizeDoesNotModifyOriginal(t *testing.T) {
	m, calib, eval := nano(t)
	before := m.Forward(eval[0], vit.ForwardOpts{}).Clone()
	if _, err := Quantize(m, NewQUQ(), CalibOptions{Bits: 6, Regime: Full, Images: calib}); err != nil {
		t.Fatal(err)
	}
	after := m.Forward(eval[0], vit.ForwardOpts{})
	if tensor.MSE(before, after) != 0 {
		t.Fatal("Quantize modified the original model")
	}
}

func TestQuantizedModelCoversExpectedSites(t *testing.T) {
	m, calib, _ := nano(t)
	partial, err := Quantize(m, NewQUQ(), CalibOptions{Bits: 6, Regime: Partial, Images: calib})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Quantize(m, NewQUQ(), CalibOptions{Bits: 6, Regime: Full, Images: calib})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Acts) <= len(partial.Acts) {
		t.Fatalf("full (%d sites) should cover more than partial (%d)", len(full.Acts), len(partial.Acts))
	}
	for key, tq := range partial.Acts {
		if tq == nil {
			t.Fatalf("nil quantizer at %s", key)
		}
	}
}

func TestQuantizedForwardDiffersButCorrelates(t *testing.T) {
	m, calib, eval := nano(t)
	qm, err := Quantize(m, NewQUQ(), CalibOptions{Bits: 8, Regime: Full, Images: calib})
	if err != nil {
		t.Fatal(err)
	}
	identical := 0
	for _, img := range eval {
		ref := m.Forward(img, vit.ForwardOpts{})
		got := qm.Forward(img)
		if tensor.MSE(ref, got) == 0 {
			identical++
		}
		if cos := tensor.CosineSimilarity(ref, got); cos < 0.95 {
			t.Fatalf("8-bit QUQ logits diverged: cosine %v", cos)
		}
	}
	if identical == len(eval) {
		t.Fatal("quantized forward is bit-identical to FP32 — quantizers not applied?")
	}
}

func TestAgreementBounds(t *testing.T) {
	m, _, eval := nano(t)
	ref := ModelClassifier{M: m}
	if got := Agreement(ref, ref, eval); got != 1 {
		t.Fatalf("self agreement = %v", got)
	}
	if got := Agreement(ref, ref, nil); got != 0 {
		t.Fatalf("empty agreement = %v", got)
	}
}

func TestAccuracy(t *testing.T) {
	m, _, eval := nano(t)
	ref := ModelClassifier{M: m}
	labels := make([]int, len(eval))
	for i, img := range eval {
		labels[i] = ref.Forward(img).ArgMax()
	}
	if got := Accuracy(ref, eval, labels); got != 1 {
		t.Fatalf("accuracy vs own labels = %v", got)
	}
	labels[0] = (labels[0] + 1) % vit.ViTNano.Classes
	want := float64(len(eval)-1) / float64(len(eval))
	if got := Accuracy(ref, eval, labels); math.Abs(got-want) > 1e-12 {
		t.Fatalf("accuracy = %v, want %v", got, want)
	}
	if Accuracy(ref, eval, labels[:3]) != 0 {
		t.Fatal("mismatched labels should yield 0")
	}
}

// TestUniformQuantizerApply: a per-tensor uniform site is QUQ's uniform
// special case, and rewrites its tensor in place.
func TestUniformQuantizerApply(t *testing.T) {
	u := QUQTensorQuantizer{Params: quant.ParamsForUniform(0.5, 4)}
	x := tensor.FromSlice([]float64{0.3, -0.3, 100, -100, 0}, 5)
	got := u.Apply(x)
	want := []float64{0.5, -0.5, 3.5, -4, 0}
	for i, v := range got.Data() {
		if v != want[i] {
			t.Fatalf("Apply = %v, want %v", got.Data(), want)
		}
	}
	if got != x || x.Data()[0] != 0.5 {
		t.Fatal("Apply did not quantize its input in place")
	}
}

// TestUniformQuantizerSaturates: a value past the grid lands on the end
// it is past, however far — including quotients past int64, whose
// conversion Go leaves to the platform — and NaN on +0.
func TestUniformQuantizerSaturates(t *testing.T) {
	u := QUQTensorQuantizer{Params: quant.ParamsForUniform(1, 6)}
	for _, c := range []struct{ in, want float64 }{
		{0.3, 0}, {2.5, 2}, {-2.5, -2}, {31.4, 31}, {-40, -32},
		{math.Inf(1), 31}, {math.Inf(-1), -32}, {1e300, 31}, {-1e300, -32},
		{math.Copysign(0, -1), 0}, {-0.3, 0}, {math.NaN(), 0},
	} {
		got := u.Apply(tensor.FromSlice([]float64{c.in}, 1)).Data()[0]
		if math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("Apply(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSearchUniformDelta(t *testing.T) {
	// Data with one extreme outlier: the searched delta must clip it
	// (delta below the absmax-fit).
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i%100) / 100
	}
	xs[0] = 50
	d := SearchUniformDelta(xs, 6, DefaultAlphaGrid)
	naive := 50.0 / 31
	if d >= naive {
		t.Fatalf("search kept the naive delta %v (got %v)", naive, d)
	}
	if got := SearchUniformDelta(make([]float64, 10), 6, DefaultAlphaGrid); got != 1 {
		t.Fatalf("zero tensor delta = %v", got)
	}
	// absmax/31 underflows to 0: still a usable (positive) delta.
	if got := SearchUniformDelta([]float64{5e-324}, 6, DefaultAlphaGrid); got != 1 {
		t.Fatalf("subnormal tensor delta = %v", got)
	}
}

func TestQUQTensorQuantizerExposesParams(t *testing.T) {
	m, calib, _ := nano(t)
	qm, err := Quantize(m, NewQUQ(), CalibOptions{Bits: 6, Regime: Full, Images: calib})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, tq := range qm.Acts {
		q, ok := tq.(QUQTensorQuantizer)
		if !ok {
			t.Fatal("QUQ method produced a non-QUQ quantizer")
		}
		if err := q.Params.Validate(); err != nil {
			t.Fatal(err)
		}
		found++
	}
	if found == 0 {
		t.Fatal("no quantizers installed")
	}
	// SiteParams is the same parameter sets, weight sites included.
	table := qm.SiteParams()
	if len(table) != len(qm.Acts)+len(qm.WeightParams) {
		t.Fatalf("SiteParams has %d sites, want %d activation + %d weight", len(table), len(qm.Acts), len(qm.WeightParams))
	}
	for key, tq := range qm.Acts {
		if table[key] != tq.(QUQTensorQuantizer).Params {
			t.Fatalf("SiteParams[%s] is not the served quantizer's parameter set", key)
		}
	}
	for key, p := range qm.WeightParams {
		if table[key] != p {
			t.Fatalf("SiteParams[%s] is not the recorded weight parameter set", key)
		}
	}
}

func TestWeightInputSiteMapping(t *testing.T) {
	cases := map[string]string{
		"attn.qkv.w":  "ln1.out",
		"attn.proj.w": "attn.proj_in",
		"mlp.fc1.w":   "ln2.out",
		"mlp.fc2.w":   "mlp.gelu_out",
		"patch.w":     "patch.in",
		"head.w":      "head.in",
		"merge.w":     "merge.in",
	}
	for wname, want := range cases {
		in, ok := weightInputSite(vit.Site{Block: 3, Name: wname, Kind: vit.KindWeight})
		if !ok || in.Name != want {
			t.Errorf("weightInputSite(%s) = %v/%v, want %s", wname, in.Name, ok, want)
		}
	}
	if _, ok := weightInputSite(vit.Site{Name: "nonsense.w"}); ok {
		t.Error("unknown weight site mapped")
	}
}

func TestChanMeanSq(t *testing.T) {
	m, calib, _ := nano(t)
	stats := Collect(m, calib, 1024)
	for _, st := range stats {
		sq := st.ChanMeanSq()
		if sq == nil {
			t.Fatalf("site %v has no channel moments", st.Site)
		}
		for c, v := range sq {
			if v < 0 {
				t.Fatalf("site %v channel %d: negative E[x²]", st.Site, c)
			}
		}
	}
}

func TestQuantizeWeightAwareReducesWeightedError(t *testing.T) {
	// Construct a weight matrix whose rows matter very unequally: the
	// aware search must produce a weighted output error no worse than
	// the plain (unweighted) calibration.
	src := rng.New(55)
	const in, out = 64, 32
	w := tensor.New(in, out)
	for i := range w.Data() {
		v := src.Laplace(0.05)
		if src.Float64() < 0.01 {
			v *= 12
		}
		w.Data()[i] = v
	}
	inputSq := make([]float64, in)
	for d := range inputSq {
		if d < 4 {
			inputSq[d] = 100 // hot input channels
		} else {
			inputSq[d] = 0.01
		}
	}
	weighted := func(q *tensor.Tensor) float64 {
		var s float64
		for r := 0; r < in; r++ {
			for c := 0; c < out; c++ {
				e := q.At(r, c) - w.At(r, c)
				s += inputSq[r] * e * e
			}
		}
		return s
	}
	meth := NewQUQ()
	plain := w.Clone()
	meth.QuantizeWeight(vit.Site{Name: "w"}, plain, 4)
	aware := w.Clone()
	meth.QuantizeWeightAware(vit.Site{Name: "w"}, aware, 4, inputSq)
	if weighted(aware) > weighted(plain)+1e-15 {
		t.Fatalf("aware search weighted error %v above plain %v", weighted(aware), weighted(plain))
	}
}

func TestQuantizeWeightAwareFallsBack(t *testing.T) {
	src := rng.New(56)
	w := tensor.New(8, 8)
	for i := range w.Data() {
		w.Data()[i] = src.Gauss(0, 0.1)
	}
	orig := w.Clone()
	NewQUQ().QuantizeWeightAware(vit.Site{Name: "w"}, w, 6, []float64{1, 2}) // wrong length
	if tensor.MSE(w, orig) == 0 {
		t.Fatal("fallback path did not quantize")
	}
}

// TestQuantizeWeightAwarePrunedPicksExhaustiveWinner: the row-wise early
// exit in the Hessian-weighted scorer selects the parameter set an
// exhaustive scoring of the same grid selects — on matrices whose
// deciding rows come last, whose hot rows come first, and whose rows all
// weigh nothing (every candidate ties at 0 and the incumbent must stay).
func TestQuantizeWeightAwarePrunedPicksExhaustiveWinner(t *testing.T) {
	const in, out = 48, 24
	hot := func(is bool) float64 {
		if is {
			return 500
		}
		return 1e-6
	}
	for name, weight := range map[string]func(r int) float64{
		"hot rows last":  func(r int) float64 { return hot(r >= in-2) },
		"hot rows first": func(r int) float64 { return hot(r < 2) },
		"flat":           func(int) float64 { return 1 },
		"all zero":       func(int) float64 { return 0 },
	} {
		for _, bits := range []int{4, 6} {
			src := rng.New(uint64(57 + bits))
			w := tensor.New(in, out)
			for i := range w.Data() {
				w.Data()[i] = src.Laplace(0.05)
				if src.Float64() < 0.02 {
					w.Data()[i] *= 15
				}
			}
			inputSq := make([]float64, in)
			for r := range inputSq {
				inputSq[r] = weight(r)
			}
			d := w.Data()
			exhaustive := func(p *quant.Params, _ float64) float64 {
				var s float64
				for r := 0; r < in; r++ {
					if inputSq[r] <= 0 {
						continue
					}
					var rowErr float64
					for _, v := range d[r*out : (r+1)*out] {
						e := v - p.Value(v)
						rowErr += e * e
					}
					s += inputSq[r] * rowErr
				}
				return s
			}
			meth := NewQUQ()
			want := quant.RefineScored(quant.Calibrate(d, bits, meth.PRA), meth.Refine, exhaustive)

			var got *quant.Params
			meth.RecordWeightParams(func(_ vit.Site, p *quant.Params) { got = p })
			meth.QuantizeWeightAware(vit.Site{Name: "w"}, w.Clone(), bits, inputSq)
			if got == nil || *got != *want {
				t.Errorf("%s, %d bits: pruned search chose %v, exhaustive %v", name, bits, got, want)
			}
		}
	}
}
