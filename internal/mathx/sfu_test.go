package mathx_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"quq/internal/data"
	"quq/internal/mathx"
	"quq/internal/ptq"
	"quq/internal/rng"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// The oracle for both kernels is the scalar spec run the way the forward
// ran it before them: Gelu per element, SoftmaxInPlace per row. Every
// comparison is on bits.

func geluWant(xs []float64) []float64 {
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = mathx.Gelu(x)
	}
	return want
}

func softmaxWant(xs []float64, cols int) []float64 {
	want := append([]float64(nil), xs...)
	for r := 0; r+cols <= len(want); r += cols {
		mathx.SoftmaxInPlace(want[r : r+cols])
	}
	return want
}

func sameBits(t testing.TB, label string, got, want []float64) {
	t.Helper()
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("%s: element %d of %d = %v (%#x), scalar spec %v (%#x)",
				label, i, len(want), got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
		}
	}
}

func checkGelu(t testing.TB, label string, xs []float64) {
	t.Helper()
	got := append([]float64(nil), xs...)
	mathx.GeluSlice(got)
	sameBits(t, label, got, geluWant(xs))
}

// checkSoftmax holds SoftmaxRows to SoftmaxInPlace bit for bit, with one
// exception that neither function pins: when two different non-finite
// inputs meet in a row, the running sum adds NaNs of different payloads,
// and which one x+y keeps is the compiler's choice of operand order. Such
// a row must be NaN exactly where the spec's is and bit-equal elsewhere.
func checkSoftmax(t testing.TB, label string, xs []float64, cols int) {
	t.Helper()
	got := append([]float64(nil), xs...)
	mathx.SoftmaxRows(got, cols)
	want := softmaxWant(xs, cols)
	label = fmt.Sprintf("%s cols %d", label, cols)
	for r := 0; r < len(xs); r += cols {
		nonFinite := map[uint64]bool{}
		for _, x := range xs[r : r+cols] {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				nonFinite[math.Float64bits(x)] = true
			}
		}
		if len(nonFinite) < 2 {
			sameBits(t, label, got[r:r+cols], want[r:r+cols])
			continue
		}
		for i, w := range want[r : r+cols] {
			if g := got[r+i]; math.IsNaN(g) != math.IsNaN(w) || !math.IsNaN(w) && math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: row %d element %d = %v, scalar spec %v", label, r/cols, i, g, w)
			}
		}
	}
}

// servedPoint is one (model, bits, regime) whose real SFU inputs the
// kernels are held to, with what reached every block's GELU and softmax
// on one image.
type servedPoint struct {
	cfg           vit.Config
	bits          int
	regime        ptq.Regime
	gelu, softmax []*tensor.Tensor
}

func (p *servedPoint) String() string { return fmt.Sprintf("%s/%d/%v", p.cfg.Name, p.bits, p.regime) }

// served is the memo's side of the selection at 4, 6 and 8 bits Full and
// the scalar side at Partial, on both bench models. servedInputs fills it
// on first use; both kernel tests read it.
var served = []*servedPoint{
	{cfg: vit.ViTNano, bits: 4, regime: ptq.Full}, {cfg: vit.ViTNano, bits: 6, regime: ptq.Full},
	{cfg: vit.ViTNano, bits: 8, regime: ptq.Full}, {cfg: vit.ViTNano, bits: 6, regime: ptq.Partial},
	{cfg: vit.ViTSmall, bits: 4, regime: ptq.Full}, {cfg: vit.ViTSmall, bits: 6, regime: ptq.Full},
	{cfg: vit.ViTSmall, bits: 8, regime: ptq.Full}, {cfg: vit.ViTSmall, bits: 6, regime: ptq.Partial},
}

func servedInputs(t *testing.T) []*servedPoint {
	t.Helper()
	for _, p := range served {
		if p.gelu != nil {
			continue
		}
		qm, err := ptq.Quantize(vit.New(p.cfg, 1), ptq.NewQUQ(), ptq.CalibOptions{
			Bits: p.bits, Regime: p.regime, Images: data.CalibrationSet(p.cfg, 2, 3),
		})
		if err != nil {
			t.Fatal(err)
		}
		qm.ForwardOpts(data.Images(p.cfg, 1, 2)[0], vit.ForwardOpts{Tap: func(s vit.Site, x *tensor.Tensor) *tensor.Tensor {
			switch s.Name {
			case "mlp.gelu_in":
				p.gelu = append(p.gelu, x.Clone())
			case "attn.softmax_in":
				p.softmax = append(p.softmax, x.Clone())
			}
			return x
		}})
		if len(p.gelu) != p.cfg.Depth || len(p.softmax) != p.cfg.Depth {
			t.Fatalf("%v: captured %d GELU and %d softmax inputs, want %d each", p, len(p.gelu), len(p.softmax), p.cfg.Depth)
		}
	}
	return served
}

// specials are the inputs == would get wrong: both zeros, subnormals,
// infinities, a quiet and a signalling NaN (and one with the sign set).
var specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000F_FFFF_FFFF_FFFF),
	math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7FF8_0000_0000_0001), math.Float64frombits(0x7FF0_0000_0000_0001),
	math.Float64frombits(0xFFF8_0000_0000_00AB),
	1, -1, 0.5, -37.25, 700, -700, math.MaxFloat64,
}

// drawn returns n elements drawn from palette.
func drawn(r *rng.Source, n int, palette []float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = palette[r.Intn(len(palette))]
	}
	return xs
}

// distinct returns n different finite values: what an unquantized tensor
// looks like to the memo.
func distinct(r *rng.Source, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Gauss(0, 2) + float64(i)*1e-9
	}
	return xs
}

// joined returns the parts end to end in a slice of their own.
func joined(parts ...[]float64) []float64 {
	var xs []float64
	for _, p := range parts {
		xs = append(xs, p...)
	}
	return xs
}

// colliding returns n different keys that all live in the memo's slot
// slot and satisfy ok, as floats: the hash multiplier is odd, so its
// inverse mod 2^64 turns any product with the wanted top bits back into
// the key that hashes there.
func colliding(t *testing.T, n int, slot uint64, ok func(float64) bool) []float64 {
	t.Helper()
	inv := uint64(mathx.MemoMul) // Newton: five steps double 3 correct bits to 64+.
	for i := 0; i < 5; i++ {
		inv *= 2 - mathx.MemoMul*inv
	}
	if inv*mathx.MemoMul != 1 {
		t.Fatalf("inverse of the hash multiplier is wrong: %#x", inv)
	}
	var xs []float64
	for low := uint64(1); len(xs) < n; low++ {
		key := inv * (slot<<(64-mathx.MemoBits) | low)
		if mathx.MemoIndex(key) != slot {
			t.Fatalf("key %#x hashes to slot %d, built for %d", key, mathx.MemoIndex(key), slot)
		}
		if x := math.Float64frombits(key); ok(x) {
			xs = append(xs, x)
		}
	}
	return xs
}

func TestMemoVacantKeyLivesElsewhere(t *testing.T) {
	if mathx.MemoIndex(0) != 0 {
		t.Fatalf("+0.0's bits hash to slot %d: a zeroed table is no longer vacant everywhere but slot 0", mathx.MemoIndex(0))
	}
	if mathx.MemoIndex(mathx.MemoVacant) == 0 {
		t.Fatal("the vacancy key of slot 0 hashes to slot 0: a lookup could match it")
	}
}

func TestGeluSliceMatchesGelu(t *testing.T) {
	for _, p := range servedInputs(t) {
		for blk, x := range p.gelu {
			checkGelu(t, fmt.Sprintf("%v b%02d", p, blk), x.Data())
		}
	}

	r := rng.New(24)
	w := mathx.MemoWindow
	checkGelu(t, "specials", specials)
	checkGelu(t, "specials, repeated", drawn(r, 3*w, specials))
	for _, n := range []int{0, 1, w - 1, w, w + 1, 3*w + 5} {
		checkGelu(t, fmt.Sprintf("palette len %d", n), drawn(r, n, distinct(r, 50)))
		checkGelu(t, fmt.Sprintf("distinct len %d", n), distinct(r, n))
	}

	// One slot, many keys: every lookup evicts the previous one.
	clash := colliding(t, 40, 77, func(float64) bool { return true })
	checkGelu(t, "one slot, once each", clash)
	checkGelu(t, "one slot, drawn", drawn(r, 3*w, clash))
	checkGelu(t, "one slot, two keys alternating", drawn(r, 3*w, clash[:2]))

	// Across the bail-out, in both orders and at both window edges.
	for _, k := range []int{w - 1, w, w + 1, 2 * w} {
		quantized, raw := drawn(r, k, distinct(r, 50)), distinct(r, 2*w+3)
		checkGelu(t, fmt.Sprintf("quantized %d then unquantized", k), joined(quantized, raw))
		checkGelu(t, fmt.Sprintf("unquantized then quantized %d", k), joined(raw, quantized))
	}
}

func TestSoftmaxRowsMatchesSoftmaxInPlace(t *testing.T) {
	for _, p := range servedInputs(t) {
		for blk, x := range p.softmax {
			checkSoftmax(t, fmt.Sprintf("%v b%02d", p, blk), x.Data(), x.Dim(1))
		}
	}

	r := rng.New(25)
	w := mathx.MemoWindow
	// Keys that share a slot as v−max: negative values under a row
	// maximum of +0.0.
	negative := func(x float64) bool { return x < 0 }
	clash := append(colliding(t, 40, 1234, negative), 0)
	for _, cols := range []int{1, 17, 66} {
		rows := func(n int) int { return (n + cols - 1) / cols * cols }
		checkSoftmax(t, "empty", nil, cols)
		checkSoftmax(t, "specials, mixed", drawn(r, rows(3*w), specials), cols)
		for _, sp := range specials {
			checkSoftmax(t, fmt.Sprintf("special %#x", math.Float64bits(sp)), drawn(r, rows(3*w), []float64{sp, 0.5, -2, 3.25}), cols)
		}
		for _, n := range []int{1, w - 1, w, w + 1, 3*w + 5} {
			checkSoftmax(t, fmt.Sprintf("palette len %d", rows(n)), drawn(r, rows(n), distinct(r, 50)), cols)
			checkSoftmax(t, fmt.Sprintf("distinct len %d", rows(n)), distinct(r, rows(n)), cols)
		}
		oneSlot := drawn(r, rows(3*w), clash)
		for i := 0; i < len(oneSlot); i += cols {
			oneSlot[i] = 0
		}
		checkSoftmax(t, "one slot", oneSlot, cols)
		for _, k := range []int{w - 1, w, w + 1, 2 * w} {
			quantized, raw := drawn(r, rows(k), distinct(r, 50)), distinct(r, rows(2*w+3))
			checkSoftmax(t, fmt.Sprintf("quantized %d then unquantized", rows(k)), joined(quantized, raw), cols)
			checkSoftmax(t, fmt.Sprintf("unquantized then quantized %d", rows(k)), joined(raw, quantized), cols)
		}
	}
}

func TestSoftmaxRowsRejectsRaggedRows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("7 elements in rows of 3 did not panic")
		}
	}()
	mathx.SoftmaxRows(make([]float64, 7), 3)
}

// TestGeluSliceCallsTheScalarNoMoreThanTheLoop holds the selection to its
// cost model by counting calls of the scalar function, not by timing: a
// tensor the memo cannot help costs exactly the scalar loop's calls, once
// a window has missed its way out nothing is memoized again, and a
// quantized tensor costs one call per distinct value.
func TestGeluSliceCallsTheScalarNoMoreThanTheLoop(t *testing.T) {
	calls := 0
	counted := func(x float64) float64 { calls++; return mathx.Gelu(x) }
	run := func(xs []float64) int {
		calls = 0
		got := append([]float64(nil), xs...)
		mathx.GeluSliceWith(got, counted)
		sameBits(t, "counted", got, geluWant(xs))
		return calls
	}
	r := rng.New(26)
	w := mathx.MemoWindow

	// A palette with a slot per value, so the hit count is exact.
	var palette []float64
	taken := map[uint64]bool{}
	for _, x := range distinct(r, 200) {
		if s := mathx.MemoIndex(math.Float64bits(x)); !taken[s] && len(palette) < 50 {
			taken[s] = true
			palette = append(palette, x)
		}
	}
	if len(palette) != 50 {
		t.Fatalf("palette of %d values, want 50", len(palette))
	}
	quantized := joined(drawn(r, 25*w, palette), palette)
	if got := run(quantized); got != len(palette) {
		t.Errorf("quantized tensor of %d values: %d scalar calls", len(palette), got)
	}

	raw := distinct(r, 5*w+3)
	if got := run(raw); got != len(raw) {
		t.Errorf("all-distinct tensor of %d: %d scalar calls", len(raw), got)
	}

	// After the first window misses out, a constant tail is computed per
	// element: the memo is gone, not probing.
	tail := make([]float64, 3*w)
	if got, want := run(joined(distinct(r, w), tail)), w+len(tail); got != want {
		t.Errorf("distinct window then constant tail: %d scalar calls, want %d (the plain loop)", got, want)
	}

	// The reverse: hits for two windows, one window of misses, then the
	// plain loop.
	mixed := joined(drawn(r, 2*w-len(palette), palette), palette, distinct(r, w), tail)
	if got, want := run(mixed), len(palette)+w+len(tail); got != want {
		t.Errorf("quantized, distinct window, constant tail: %d scalar calls, want %d", got, want)
	}

	// Real tensors land on the side meant for them: a fully-quantized
	// model's GELU input costs a fraction of its length (two values that
	// share a slot keep evicting each other, so not always 2^b calls), a
	// Partial one's (unquantized) the plain loop less what its first
	// window happened to repeat.
	for _, p := range servedInputs(t) {
		for blk, x := range p.gelu {
			n := x.Len()
			got := run(x.Data())
			if p.regime == ptq.Full && got*4 > n || p.regime == ptq.Partial && got < n-w/2 {
				t.Errorf("%v b%02d: %d scalar calls for %d elements", p, blk, got, n)
			}
		}
	}

	// Exactly half a window missing is not "more than half": two keys of
	// one slot, AAAB, keep the memo on.
	clash := colliding(t, 2, 9, func(float64) bool { return true })
	aaab := make([]float64, 4*w)
	for i := range aaab {
		aaab[i] = clash[0]
		if i%4 == 3 {
			aaab[i] = clash[1]
		}
	}
	if got, want := run(aaab), len(aaab)/2; got != want {
		t.Errorf("AAAB on one slot: %d scalar calls, want %d", got, want)
	}
}

// FuzzSFUSliceKernels holds both kernels to the scalar functions on
// tensors built from arbitrary float bits. palette bounds how many
// different values a tensor draws (each base value and its next few
// neighbours in bit order), so the fuzzer reaches the hit path with a
// small palette and the bail-out with a large one.
func FuzzSFUSliceKernels(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var raw []byte
		for _, v := range vals {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		return raw
	}
	f.Add(seed(0.25, -3), uint16(40), uint8(17))
	f.Add(seed(specials...), uint16(1), uint8(66))
	f.Add(seed(1e-3), uint16(5000), uint8(1))
	f.Add(seed(math.Copysign(0, -1), math.NaN(), math.Inf(1)), uint16(600), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, palette uint16, cols uint8) {
		if len(raw) < 8 || cols == 0 {
			return
		}
		bases := make([]uint64, len(raw)/8)
		for i := range bases {
			bases[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		r := rng.New(uint64(palette)<<8 | uint64(cols))
		n := (2*mathx.MemoWindow + 100) / int(cols) * int(cols)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(bases[r.Intn(len(bases))] + uint64(r.Intn(int(palette)+1)))
		}
		checkGelu(t, "fuzz", xs)
		checkSoftmax(t, "fuzz", xs, int(cols))
	})
}
