package ptq

import (
	"math"
	"testing"

	"quq/internal/rng"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// requant16 snaps a logit onto the 2^-16 grid, normalizing signed zero
// so +0/−0 cannot produce a spurious bit mismatch. The integer path
// computes the exact integer sum then scales once, while the float path
// rounds per accumulation step, so raw logits differ at the ~1 ulp
// level; on this grid both backends must agree exactly.
func requant16(v float64) float64 {
	q := math.RoundToEven(math.Ldexp(v, 16))
	if q == 0 {
		return 0
	}
	return math.Ldexp(q, -16)
}

func intPathModel(t *testing.T, regime Regime) (*QuantizedModel, []*tensor.Tensor) {
	t.Helper()
	m, calib, eval := nano(t)
	qm, err := Quantize(m, NewQUQ(), CalibOptions{Bits: 6, Regime: regime, Images: calib})
	if err != nil {
		t.Fatal(err)
	}
	return qm, eval
}

// TestIntPathMatchesFloatOnRequantizedGrid is the end-to-end equivalence
// gate: with the integer weight path installed, every logit must land on
// the same 2^-16 grid point as the float path, and the classification
// must be identical.
func TestIntPathMatchesFloatOnRequantizedGrid(t *testing.T) {
	for _, regime := range []Regime{Partial, Full} {
		qm, eval := intPathModel(t, regime)
		var floatLogits []*tensor.Tensor
		for _, img := range eval {
			floatLogits = append(floatLogits, qm.Forward(img))
		}
		if qm.IntPath() {
			t.Fatal("int path on before SetIntPath")
		}
		if err := qm.SetIntPath(true); err != nil {
			t.Fatalf("regime %v: %v", regime, err)
		}
		if !qm.IntPath() {
			t.Fatal("IntPath() false after enabling")
		}
		for i, img := range eval {
			got := qm.Forward(img)
			want := floatLogits[i]
			if got.ArgMax() != want.ArgMax() {
				t.Fatalf("regime %v image %d: int argmax %d, float %d", regime, i, got.ArgMax(), want.ArgMax())
			}
			for c, v := range got.Data() {
				g, w := requant16(v), requant16(want.Data()[c])
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("regime %v image %d class %d: int %v, float %v differ on the 2^-16 grid", regime, i, c, v, want.Data()[c])
				}
			}
		}
		// The comparison above is about the integer path only if every
		// weight GEMM of those forwards ran on it.
		if n := qm.IntDeclines(); n != 0 {
			t.Fatalf("regime %v: the integer engine declined %d GEMMs on quantized forwards", regime, n)
		}
		// And the count is live: one forward whose first GEMM input a tap
		// has moved off the grid declines that GEMM and only that one.
		qm.ForwardOpts(eval[0], vit.ForwardOpts{Tap: func(s vit.Site, x *tensor.Tensor) *tensor.Tensor {
			if s.Key() != "b00.ln1.out" {
				return x
			}
			off := x.Clone()
			off.Data()[0] += 1e-3
			return off
		}})
		if n := qm.IntDeclines(); n != 1 {
			t.Fatalf("regime %v: %d declines after one off-grid GEMM input, want 1", regime, n)
		}
		if err := qm.SetIntPath(false); err != nil || qm.IntPath() {
			t.Fatal("disable failed")
		}
	}
}

// TestIntPathZeroWeightRehydration is the zero-rehydration gate: with the
// int path on, the forward pass must never read the float64 weight
// tensors. Poisoning every weight with NaN after the engine is built
// must leave the integer logits bit-identical; turning the engine off
// must then surface the poison.
func TestIntPathZeroWeightRehydration(t *testing.T) {
	qm, eval := intPathModel(t, Partial)
	if err := qm.SetIntPath(true); err != nil {
		t.Fatal(err)
	}
	before := qm.Forward(eval[0]).Clone()
	qm.Model.ForEachWeight(func(_ vit.Site, l *vit.Linear) {
		d := l.W.Data()
		for i := range d {
			d[i] = math.NaN()
		}
	})
	after := qm.Forward(eval[0])
	for c, v := range after.Data() {
		if math.Float64bits(v) != math.Float64bits(before.Data()[c]) {
			t.Fatalf("class %d: logit changed after weight poisoning (%v -> %v): int path read float64 weights", c, before.Data()[c], v)
		}
	}
	// Sanity: the poison is real — the float path must now produce NaN.
	if err := qm.SetIntPath(false); err != nil {
		t.Fatal(err)
	}
	sawNaN := false
	for _, v := range qm.Forward(eval[0]).Data() {
		if math.IsNaN(v) {
			sawNaN = true
			break
		}
	}
	if !sawNaN {
		t.Fatal("poisoned weights did not affect the float path — poison ineffective, test proves nothing")
	}
}

// TestIntEngineRejectsMissingParams: enabling the int path without
// recorded weight params must fail all-or-nothing.
func TestIntEngineRejectsMissingParams(t *testing.T) {
	qm, _ := intPathModel(t, Partial)
	qm.WeightParams = nil
	if err := qm.SetIntPath(true); err == nil {
		t.Fatal("int path enabled without recorded weight params")
	}
	if qm.IntPath() {
		t.Fatal("engine installed despite failed build")
	}
	qm2, _ := intPathModel(t, Partial)
	for k := range qm2.WeightParams {
		delete(qm2.WeightParams, k)
		break
	}
	if err := qm2.SetIntPath(true); err == nil {
		t.Fatal("int path enabled with one weight site missing params")
	}
}

// TestIntEngineFallsBackOffGrid: an input tensor that is not on the
// activation quantizer's grid (e.g. a tap replaced it) must make the
// engine decline the call rather than compute a wrong result.
func TestIntEngineFallsBackOffGrid(t *testing.T) {
	qm, _ := intPathModel(t, Partial)
	e, err := NewIntEngine(qm)
	if err != nil {
		t.Fatal(err)
	}
	var site vit.Site
	var lin *vit.Linear
	qm.Model.ForEachWeight(func(s vit.Site, l *vit.Linear) {
		if s.Name == "attn.qkv.w" && lin == nil {
			site, lin = s, l
		}
	})
	src := rng.New(7)
	x := tensor.New(3, lin.In())
	for i := range x.Data() {
		x.Data()[i] = src.Gauss(0, 1)
	}
	dst := tensor.New(3, lin.Out())
	if e.Linear(site, lin, dst, x) {
		t.Fatal("engine accepted an off-grid input")
	}
	if e.Linear(vit.Site{Block: 99, Name: "nonsense.w"}, lin, dst, x) {
		t.Fatal("engine accepted an unknown site")
	}
	if e.Linear(site, lin, tensor.New(3, lin.Out()+1), x) {
		t.Fatal("engine accepted a destination of the wrong shape")
	}
	if n := e.Declines(); n != 3 {
		t.Fatalf("three declined calls counted as %d", n)
	}
}
