package accel_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"quq/internal/accel"
	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/quant"
	"quq/internal/qub"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// The differential oracle (ROADMAP 3(a)): serving ≡ QUA ≡ QUB on the
// same codes. A vit.GEMMEngine spy rides the served forward and, at
// every weight GEMM, rebuilds that GEMM three ways from the served
// quantizers — the QUA simulator on QUB words, the integer kernel on the
// codes the serving integer engine recovers, and the QUB spec's Eq. (5)
// dot product — and demands one set of accumulators.

// gemmInput maps a weight site to the activation site feeding its GEMM.
var gemmInput = map[string]string{
	"patch.w": "patch.in", "attn.qkv.w": "ln1.out", "attn.proj.w": "attn.proj_in",
	"mlp.fc1.w": "ln2.out", "mlp.fc2.w": "mlp.gelu_out", "head.w": "head.in",
}

// oracle is the spy. It computes every weight GEMM itself — through
// inner when that is set (the serving integer engine), else through the
// layer's own float path, which is what a forward with no engine runs —
// so the forward it rides is the served one, bit for bit.
type oracle struct {
	params map[string]*quant.Params
	inner  vit.GEMMEngine
	// seed, when set, corrupts what the simulator is handed before the
	// comparisons run: the regression the oracle must report.
	seed func(site vit.Site, w *accel.PreparedOperand, rx *qub.Registers)

	gemms, declined int
	faults          []string
}

func (o *oracle) Linear(site vit.Site, l *vit.Linear, dst, x *tensor.Tensor) bool {
	o.gemms++
	exact := o.inner != nil && o.inner.Linear(site, l, dst, x)
	if !exact {
		if o.inner != nil {
			o.declined++
		}
		l.ApplyInto(dst, x)
	}
	if err := o.check(site, l, dst, x, exact); err != nil {
		o.faults = append(o.faults, site.Key()+": "+err.Error())
	}
	return true
}

// codes recovers the integer codes of fake-quantized values by the
// serving integer engine's rule: round v/Δ and verify the round trip.
func codes(vs []float64, delta float64) ([]int64, error) {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = int64(math.RoundToEven(v * (1 / delta)))
		if float64(out[i])*delta != v {
			return nil, fmt.Errorf("element %d (%v) is off the Δ=%v grid", i, v, delta)
		}
	}
	return out, nil
}

func sameAcc(what string, got, want []int64) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: accumulator %d is %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// check compares the GEMM the forward just ran — dst = x·W + b, exact
// when the integer engine produced it — against its integer rebuilds.
func (o *oracle) check(site vit.Site, l *vit.Linear, dst, x *tensor.Tensor, exact bool) error {
	px := o.params[vit.Site{Block: site.Block, Name: gemmInput[site.Name]}.Key()]
	pw := o.params[site.Key()]
	if px == nil || pw == nil {
		return fmt.Errorf("no served parameters for the GEMM's input or weight")
	}
	rx, err := qub.RegistersFor(px)
	if err != nil {
		return err
	}
	rw, err := qub.RegistersFor(pw)
	if err != nil {
		return err
	}
	m, k, n := x.Dim(0), x.Dim(1), l.Out()
	xw := qub.EncodeTensor(px, x.Data())
	ww := qub.EncodeTensor(pw, l.W.Data())
	w, err := accel.PrepareQuantized(pw, l.W.Data(), k, n)
	if err != nil {
		return err
	}
	if o.seed != nil {
		o.seed(site, w, &rx)
	}

	// (i) The served input is its own QUB round trip.
	for i, v := range qub.DecodeTensor(xw, rx) {
		if v != x.Data()[i] {
			return fmt.Errorf("input element %d is %v, its QUB round trip %v", i, x.Data()[i], v)
		}
	}

	// (ii) One set of accumulators: the simulator on the prepared operand
	// and on QUB weight words, the integer kernel on the codes the
	// serving engine recovers, and Eq. (5) on a sampled row and column.
	res, err := accel.DefaultArray(px.Bits).GEMMPrepared(xw, rx, w, m, k, nil)
	if err != nil {
		return err
	}
	xc, err := codes(x.Data(), px.BaseDelta())
	if err != nil {
		return err
	}
	wc, err := codes(l.W.Data(), pw.BaseDelta())
	if err != nil {
		return err
	}
	served := make([]int64, m*n)
	tensor.IntMatMulInto(served, xc, wc, m, k, n)
	if err := sameAcc("GEMMPrepared vs the serving engine's codes", res.Acc, served); err != nil {
		return err
	}
	words, err := accel.DefaultArray(px.Bits).GEMM(xw, rx, ww, rw, m, k, n, nil)
	if err != nil {
		return err
	}
	if err := sameAcc("GEMM on QUB words vs the serving engine's codes", words.Acc, served); err != nil {
		return err
	}
	row, col := o.gemms%m, (7*o.gemms)%n
	wcol := make([]qub.Word, k)
	for r := range wcol {
		wcol[r] = ww[r*n+col]
	}
	if dot := qub.Dot(xw[row*k:(row+1)*k], wcol, rx, rw); dot != served[row*n+col] {
		return fmt.Errorf("qub.Dot at (%d,%d) is %d, the accumulator %d", row, col, dot, served[row*n+col])
	}

	// (iii) What the forward continues with is accumulator × unit + bias:
	// bit for bit from the integer engine, to float64 summation rounding
	// from the float one.
	unit := px.BaseDelta() * pw.BaseDelta()
	for i, got := range dst.Data() {
		want := float64(served[i])*unit + l.B[i%n]
		if exact && math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("integer engine output %d is %v, want acc·unit+bias = %v", i, got, want)
		}
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			return fmt.Errorf("output %d is %v, acc·unit+bias = %v", i, got, want)
		}
	}
	return nil
}

// ride runs img through the served forward of qm under the oracle, on
// the float engine or the integer one, and checks the spy was
// transparent: the logits are the unspied forward's, bit for bit.
func ride(t *testing.T, qm *ptq.QuantizedModel, intPath bool, img *tensor.Tensor, o *oracle) {
	t.Helper()
	o.params = qm.SiteParams()
	if intPath {
		e, err := ptq.NewIntEngine(qm)
		if err != nil {
			t.Fatal(err)
		}
		o.inner = e
	}
	got := qm.ForwardOpts(img, vit.ForwardOpts{Engine: o})
	want := qm.ForwardOpts(img, vit.ForwardOpts{Engine: o.inner})
	for i, v := range want.Data() {
		if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("logit %d under the oracle is %v, served %v", i, got.Data()[i], v)
		}
	}
}

func TestServingMatchesQUAMatchesQUB(t *testing.T) {
	for _, cfg := range []vit.Config{vit.ViTNano, oneBlock} {
		for _, regime := range []ptq.Regime{ptq.Partial, ptq.Full} {
			for _, bits := range []int{4, 6, 8} {
				_, qm := serve(t, cfg, uint64(bits), bits, regime)
				for _, intPath := range []bool{false, true} {
					name := fmt.Sprintf("%s/%v/%d-bit/int=%v", cfg.Name, regime, bits, intPath)
					o := &oracle{}
					for _, img := range data.Images(cfg, 2, 77) {
						ride(t, qm, intPath, img, o)
					}
					if want := 2 * (2 + 4*cfg.Depth); o.gemms != want {
						t.Errorf("%s: oracle saw %d weight GEMMs, want %d", name, o.gemms, want)
					}
					if o.declined != 0 {
						t.Errorf("%s: the integer engine declined %d sites", name, o.declined)
					}
					for _, f := range o.faults {
						t.Errorf("%s: %s", name, f)
					}
				}
			}
		}
	}
}

// TestOracleReportsSeededRegression: the oracle is only worth its green
// if it goes red — one prepared weight code off by one, or one subrange
// shift register off by one, at one site, must be reported at that site.
func TestOracleReportsSeededRegression(t *testing.T) {
	_, qm := serve(t, oneBlock, 6, 6, ptq.Full)
	img := data.Images(oneBlock, 1, 77)[0]
	const at = "b00.mlp.fc1.w"
	for name, seed := range map[string]func(w *accel.PreparedOperand, rx *qub.Registers){
		"weight code":    func(w *accel.PreparedOperand, _ *qub.Registers) { w.V[len(w.V)/2]++ },
		"shift register": func(_ *accel.PreparedOperand, rx *qub.Registers) { rx.F.ShPos ^= 1 },
	} {
		for _, intPath := range []bool{false, true} {
			o := &oracle{seed: func(site vit.Site, w *accel.PreparedOperand, rx *qub.Registers) {
				if site.Key() == at {
					seed(w, rx)
				}
			}}
			ride(t, qm, intPath, img, o)
			if len(o.faults) != 1 || !strings.HasPrefix(o.faults[0], at+": ") {
				t.Errorf("%s (int=%v): oracle reported %q, want one fault at %s", name, intPath, o.faults, at)
			}
		}
	}
}
