package accel

import (
	"fmt"
	"math"
	"testing"

	"quq/internal/dist"
	"quq/internal/quant"
	"quq/internal/qub"
	"quq/internal/tensor"
)

// TestAbs64MinInt64 is the regression test for the MaxAbsAcc edge case:
// -math.MinInt64 is math.MinInt64 again (negative), which used to flow
// straight into the accumulator-width statistic.
func TestAbs64MinInt64(t *testing.T) {
	if got := abs64(math.MinInt64); got != math.MaxInt64 {
		t.Fatalf("abs64(MinInt64) = %d, want MaxInt64", got)
	}
	for _, c := range []struct{ in, want int64 }{
		{0, 0}, {5, 5}, {-5, 5},
		{math.MaxInt64, math.MaxInt64},
		{math.MinInt64 + 1, math.MaxInt64},
	} {
		if got := abs64(c.in); got != c.want {
			t.Fatalf("abs64(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestMaxAbsAccSaturates feeds the MaxAbsAcc scan an accumulator sitting
// exactly on math.MinInt64 (reachable through wrapping arithmetic) and
// checks the width statistic saturates positive instead of going
// negative.
func TestMaxAbsAccSaturates(t *testing.T) {
	var maxAbs int64
	for _, acc := range []int64{3, math.MinInt64, -7} {
		if aa := abs64(acc); aa > maxAbs {
			maxAbs = aa
		}
	}
	if maxAbs != math.MaxInt64 {
		t.Fatalf("MaxAbsAcc scan = %d, want saturated MaxInt64", maxAbs)
	}
}

// preparedFixture calibrates activation and weight quantizers and encodes
// a [m,k]·[k,n] operand pair for the prepared-GEMM tests.
type preparedFixtureData struct {
	px, pw *quant.Params
	rx, rw qub.Registers
	x, w   []qub.Word
	wData  []float64
}

func preparedFixture(t *testing.T, bits, m, k, n int) preparedFixtureData {
	t.Helper()
	px, xs := calibrate(t, dist.PostGELU, bits, 31)
	pw, ws := calibrate(t, dist.QueryWeight, bits, 32)
	rx, err := qub.RegistersFor(px)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := qub.RegistersFor(pw)
	if err != nil {
		t.Fatal(err)
	}
	return preparedFixtureData{
		px: px, pw: pw, rx: rx, rw: rw,
		x:     qub.EncodeTensor(px, xs[:m*k]),
		w:     qub.EncodeTensor(pw, ws[:k*n]),
		wData: ws[:k*n],
	}
}

// TestGEMMPreparedMatchesGEMM checks the resident-operand path is
// bit-identical to the word-stream path: same Acc, same requantized Out
// words, same MaxAbsAcc.
func TestGEMMPreparedMatchesGEMM(t *testing.T) {
	const bits, m, k, n = 6, 17, 48, 33
	fx := preparedFixture(t, bits, m, k, n)
	qu, err := NewQuantizeUnit(fx.pw, fx.rx.BaseDelta*fx.rw.BaseDelta)
	if err != nil {
		t.Fatal(err)
	}
	c := DefaultArray(bits)
	want, err := c.GEMM(fx.x, fx.rx, fx.w, fx.rw, m, k, n, qu)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := prepareWords(fx.w, fx.rw, k, n)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Delta != fx.rw.BaseDelta {
		t.Fatalf("prepared Delta %v, want %v", prep.Delta, fx.rw.BaseDelta)
	}
	got, err := c.GEMMPrepared(fx.x, fx.rx, prep, m, k, qu)
	if err != nil {
		t.Fatal(err)
	}
	assertGEMMEqual(t, "GEMMPrepared", got, want)
}

// TestGEMMMatchesScalarBaseline checks the kernel-layer GEMM against the
// naive scalar oracle: decode by hand, run tensor.IntMatMulRef,
// requantize with the same unit — Acc and Out must match bit for bit.
func TestGEMMMatchesScalarBaseline(t *testing.T) {
	const bits, m, k, n = 6, 17, 48, 33
	fx := preparedFixture(t, bits, m, k, n)
	qu, err := NewQuantizeUnit(fx.pw, fx.rx.BaseDelta*fx.rw.BaseDelta)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DefaultArray(bits).GEMM(fx.x, fx.rx, fx.w, fx.rw, m, k, n, qu)
	if err != nil {
		t.Fatal(err)
	}
	vx := make([]int64, len(fx.x))
	decodeWords(vx, fx.x, fx.rx)
	vw := make([]int64, len(fx.w))
	decodeWords(vw, fx.w, fx.rw)
	acc := make([]int64, m*n)
	tensor.IntMatMulRef(acc, vx, vw, m, k, n)
	for i, a := range acc {
		if got.Acc[i] != a {
			t.Fatalf("Acc[%d] = %d, scalar baseline %d", i, got.Acc[i], a)
		}
		if want := qub.Encode(qu.Params, qu.Requantize(a)); got.Out[i] != want {
			t.Fatalf("Out[%d] = %#x, scalar baseline %#x", i, got.Out[i], want)
		}
	}
}

// TestPrepareQuantizedMatchesWords checks the float-recovery preparation
// route: fake-quantize weight data with the calibrated params, recover
// the integer grid, and confirm every recovered integer reproduces the
// fake-quantized float exactly and agrees with decoding the QUB words of
// the same values.
func TestPrepareQuantizedMatchesWords(t *testing.T) {
	const bits, k, n = 6, 48, 33
	fx := preparedFixture(t, bits, 1, k, n)
	fq := make([]float64, len(fx.wData))
	fx.pw.QuantizeSlice(fq, fx.wData)
	prep, err := PrepareQuantized(fx.pw, fq, k, n)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Delta != fx.pw.BaseDelta() {
		t.Fatalf("Delta %v, want base delta %v", prep.Delta, fx.pw.BaseDelta())
	}
	for i, m := range prep.V {
		if float64(m)*prep.Delta != fq[i] {
			t.Fatalf("element %d: recovered %d·Δ = %v, want %v", i, m, float64(m)*prep.Delta, fq[i])
		}
	}
	vw := make([]int64, len(fq))
	decodeWords(vw, qub.EncodeTensor(fx.pw, fq), fx.rw)
	for i := range vw {
		if vw[i] != prep.V[i] {
			t.Fatalf("element %d: words decode to %d, recovery gives %d (value %v)", i, vw[i], prep.V[i], fq[i])
		}
	}
}

// TestPrepareQuantizedRejectsOffGrid checks the per-element verification:
// data not fake-quantized with the params must be rejected, as must a
// size mismatch.
func TestPrepareQuantizedRejectsOffGrid(t *testing.T) {
	px, xs := calibrate(t, dist.PostGELU, 6, 33)
	fq := make([]float64, 8)
	px.QuantizeSlice(fq, xs[:8])
	fq[3] += px.BaseDelta() * 0.3
	if _, err := PrepareQuantized(px, fq, 2, 4); err == nil {
		t.Fatal("off-grid data accepted")
	}
	if _, err := PrepareQuantized(px, fq[:6], 2, 4); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// TestPrepareWordsRejectsSizeMismatch covers the word-count check.
func TestPrepareWordsRejectsSizeMismatch(t *testing.T) {
	if _, err := prepareWords(make([]qub.Word, 7), qub.Registers{Bits: 8}, 2, 4); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// TestSliceColsPrepared checks column slicing of a prepared operand
// against preparing the sliced words directly.
func TestSliceColsPrepared(t *testing.T) {
	const bits, k, n = 6, 16, 24
	fx := preparedFixture(t, bits, 1, k, n)
	whole, err := prepareWords(fx.w, fx.rw, k, n)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 8, 16
	slice := whole.SliceCols(lo, hi)
	direct, err := prepareWords(sliceCols(fx.w, k, n, lo, hi), fx.rw, k, hi-lo)
	if err != nil {
		t.Fatal(err)
	}
	if slice.Rows != direct.Rows || slice.Cols != direct.Cols || slice.MaxAbs != direct.MaxAbs || slice.Delta != direct.Delta {
		t.Fatalf("slice header rows=%d cols=%d maxAbs=%d Δ=%v, want rows=%d cols=%d maxAbs=%d Δ=%v",
			slice.Rows, slice.Cols, slice.MaxAbs, slice.Delta,
			direct.Rows, direct.Cols, direct.MaxAbs, direct.Delta)
	}
	for i := range slice.V {
		if slice.V[i] != direct.V[i] {
			t.Fatalf("slice V[%d] = %d, want %d", i, slice.V[i], direct.V[i])
		}
	}
}

// TestGEMMPreparedSizeMismatch covers the prepared-path operand checks.
func TestGEMMPreparedSizeMismatch(t *testing.T) {
	c := DefaultArray(8)
	prep := &PreparedOperand{Rows: 3, Cols: 2, V: make([]int64, 6), Delta: 1}
	if _, err := c.GEMMPrepared(make([]qub.Word, 5), qub.Registers{Bits: 8}, prep, 2, 2, nil); err == nil {
		t.Fatal("accepted x size mismatch")
	}
	if _, err := c.GEMMPrepared(make([]qub.Word, 4), qub.Registers{Bits: 8}, prep, 2, 2, nil); err == nil {
		t.Fatal("accepted operand row mismatch")
	}
}

func assertGEMMEqual(t *testing.T, name string, got, want *GEMMResult) {
	t.Helper()
	if got.MaxAbsAcc != want.MaxAbsAcc {
		t.Fatalf("%s: MaxAbsAcc %d, want %d", name, got.MaxAbsAcc, want.MaxAbsAcc)
	}
	for i := range want.Acc {
		if got.Acc[i] != want.Acc[i] {
			t.Fatalf("%s: Acc[%d] = %d, want %d", name, i, got.Acc[i], want.Acc[i])
		}
		if got.Out[i] != want.Out[i] {
			t.Fatalf("%s: Out[%d] = %#x, want %#x", name, i, got.Out[i], want.Out[i])
		}
	}
}

// prepareWords decodes a QUB word stream into a resident prepared
// operand: the QUB-words oracle for PrepareQuantized and GEMMPrepared.
func prepareWords(ws []qub.Word, r qub.Registers, rows, cols int) (*PreparedOperand, error) {
	if len(ws) != rows*cols {
		return nil, fmt.Errorf("accel: prepared operand has %d words, want %dx%d", len(ws), rows, cols)
	}
	p := &PreparedOperand{Rows: rows, Cols: cols, V: make([]int64, len(ws)), Delta: r.BaseDelta}
	for i, w := range ws {
		d := qub.Decode(w, r)
		v := int64(d.D) << d.Nsh
		p.V[i] = v
		if a := abs64(v); a > p.MaxAbs {
			p.MaxAbs = a
		}
	}
	return p, nil
}
