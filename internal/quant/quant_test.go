package quant

import (
	"fmt"
	"math"
	"testing"

	"quq/internal/rng"
)

func TestUniformBasics(t *testing.T) {
	// Δ=1, 4 bits: codes in [-8, 7].
	cases := []struct {
		x, want float64
	}{
		{0, 0}, {0.4, 0}, {0.6, 1}, {1.5, 2} /* round half to even */, {2.5, 2},
		{-0.6, -1}, {100, 7}, {-100, -8},
	}
	for _, c := range cases {
		if got := Uniform(c.x, 1, 4); got != c.want {
			t.Errorf("Uniform(%v, 1, 4) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestUniformCodeRange(t *testing.T) {
	src := rng.New(1)
	for i := 0; i < 10000; i++ {
		x := src.Gauss(0, 10)
		c := UniformCode(x, 0.3, 6)
		if c < -32 || c > 31 {
			t.Fatalf("UniformCode out of 6-bit range: %d", c)
		}
	}
}

func TestUniformDelta(t *testing.T) {
	if d := UniformDelta(127, 8); d != 1 {
		t.Fatalf("UniformDelta(127, 8) = %v, want 1", d)
	}
	if d := UniformDelta(0, 8); d != 1 {
		t.Fatalf("UniformDelta of zero tensor should be 1, got %v", d)
	}
}

func TestUniformErrorBound(t *testing.T) {
	// Within the representable range, |x - U(x)·Δ| ≤ Δ/2.
	src := rng.New(2)
	const delta = 0.25
	for i := 0; i < 10000; i++ {
		x := src.Uniform(-31*delta, 31*delta)
		if err := math.Abs(x - Uniform(x, delta, 6)); err > delta/2+1e-12 {
			t.Fatalf("|%v - U(%v)| = %v > Δ/2", x, x, err)
		}
	}
}

func TestRelaxProducesPow2Ratio(t *testing.T) {
	src := rng.New(3)
	for i := 0; i < 5000; i++ {
		d1 := math.Exp(src.Uniform(-10, 10))
		d2 := math.Exp(src.Uniform(-10, 10))
		r1, r2 := Relax(d1, d2)
		k := math.Log2(r2 / r1)
		if math.Abs(k-math.Round(k)) > 1e-9 {
			t.Fatalf("Relax(%v, %v) ratio 2^%v is not a power of two", d1, d2, k)
		}
	}
}

func TestRelaxNeverShrinks(t *testing.T) {
	// Algorithm 1's guarantee: neither output is smaller than its input
	// (so relaxation never introduces clipping).
	src := rng.New(4)
	for i := 0; i < 5000; i++ {
		d1 := math.Exp(src.Uniform(-5, 5))
		d2 := math.Exp(src.Uniform(-5, 5))
		r1, r2 := Relax(d1, d2)
		if r1 < d1-1e-12 || r2 < d2-1e-12 {
			t.Fatalf("Relax(%v, %v) = (%v, %v) shrank a factor", d1, d2, r1, r2)
		}
	}
}

func TestRelaxIdempotentOnPow2(t *testing.T) {
	for _, k := range []int{-3, -1, 0, 1, 4} {
		d1 := 0.375
		d2 := d1 * math.Pow(2, float64(k))
		r1, r2 := Relax(d1, d2)
		if math.Abs(r1-d1) > 1e-12 || math.Abs(r2-d2) > 1e-12 {
			t.Fatalf("Relax changed an already-relaxed pair (k=%d): (%v,%v) -> (%v,%v)", k, d1, d2, r1, r2)
		}
	}
}

func TestRelaxExactlyOneChanged(t *testing.T) {
	src := rng.New(5)
	for i := 0; i < 2000; i++ {
		d1 := math.Exp(src.Uniform(-4, 4))
		d2 := math.Exp(src.Uniform(-4, 4))
		r1, r2 := Relax(d1, d2)
		c1 := math.Abs(r1-d1) > 1e-12
		c2 := math.Abs(r2-d2) > 1e-12
		if c1 && c2 {
			t.Fatalf("Relax modified both factors: (%v,%v) -> (%v,%v)", d1, d2, r1, r2)
		}
	}
}

func TestRelaxPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Relax(0, 1)
}

func TestParamsForUniformMatchesUniform(t *testing.T) {
	// The paper: symmetric uniform quantization is a special case of QUQ
	// (Mode D with Δ_C− = Δ_F+).
	src := rng.New(6)
	for _, bits := range []int{4, 6, 8} {
		const delta = 0.17
		p := ParamsForUniform(delta, bits)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			x := src.Gauss(0, 3)
			if got, want := p.Value(x), Uniform(x, delta, bits); got != want {
				t.Fatalf("b=%d x=%v: QUQ uniform-equivalent %v != Uniform %v", bits, x, got, want)
			}
		}
	}
}

// TestNaNQuantizesToZero: NaN has no integer code, and Go leaves
// int64(NaN) to the platform (amd64 gives MinInt64, arm64 0). U_b and
// every QUQ quantizer, scalar and slice, give it the canonical zero.
func TestNaNQuantizesToZero(t *testing.T) {
	nan := math.NaN()
	if c := UniformCode(nan, 0.37, 6); c != 0 {
		t.Errorf("UniformCode(NaN) = %d, want 0", c)
	}
	if v := Uniform(nan, 0.37, 6); math.Float64bits(v) != 0 {
		t.Errorf("Uniform(NaN) = %v, want +0", v)
	}
	modeA := &Params{Bits: 6, Slots: [4]SlotParams{
		FNeg: {true, 0.5, 16}, FPos: {true, 0.5, 15}, CNeg: {true, 4, 16}, CPos: {true, 2, 15},
	}}
	for _, p := range []*Params{ParamsForUniform(0.37, 6), modeA} {
		zero := math.Float64bits(p.Dequantize(Code{Slot: p.zeroSlot()}))
		if v := p.Value(nan); math.Float64bits(v) != zero {
			t.Errorf("%v: Value(NaN) = %v, want the canonical zero", p, v)
		}
		out := []float64{nan}
		p.QuantizeSlice(out, out)
		if math.Float64bits(out[0]) != zero {
			t.Errorf("%v: QuantizeSlice(NaN) = %v, want the canonical zero", p, out[0])
		}
	}
}

func TestValidateRejectsBadRatio(t *testing.T) {
	p := &Params{Bits: 8}
	p.Slots[FPos] = SlotParams{Enabled: true, Delta: 1, MaxMag: 63}
	p.Slots[CPos] = SlotParams{Enabled: true, Delta: 3, MaxMag: 63} // not 2^k
	if p.Validate() == nil {
		t.Fatal("Validate accepted a non-power-of-two ratio")
	}
}

func TestValidateRejectsEmpty(t *testing.T) {
	p := &Params{Bits: 8}
	if p.Validate() == nil {
		t.Fatal("Validate accepted an all-disabled quantizer")
	}
}

func TestValidateRejectsBadBits(t *testing.T) {
	p := ParamsForUniform(1, 8)
	p.Bits = 2
	if p.Validate() == nil {
		t.Fatal("Validate accepted 2-bit quantizer")
	}
}

func TestShift(t *testing.T) {
	p := &Params{Bits: 8, Mode: ModeA}
	p.Slots[FNeg] = SlotParams{Enabled: true, Delta: 0.5, MaxMag: 64}
	p.Slots[FPos] = SlotParams{Enabled: true, Delta: 0.5, MaxMag: 63}
	p.Slots[CNeg] = SlotParams{Enabled: true, Delta: 4, MaxMag: 64}
	p.Slots[CPos] = SlotParams{Enabled: true, Delta: 2, MaxMag: 63}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.BaseDelta() != 0.5 {
		t.Fatalf("BaseDelta = %v", p.BaseDelta())
	}
	if p.Shift(FPos) != 0 || p.Shift(CNeg) != 3 || p.Shift(CPos) != 2 {
		t.Fatalf("shifts = %d,%d,%d", p.Shift(FPos), p.Shift(CNeg), p.Shift(CPos))
	}
}

func TestMaxCodeMag(t *testing.T) {
	p := &Params{Bits: 8, Mode: ModeA}
	p.Slots[FNeg] = SlotParams{Enabled: true, Delta: 0.5, MaxMag: 64}
	p.Slots[FPos] = SlotParams{Enabled: true, Delta: 0.5, MaxMag: 63}
	p.Slots[CNeg] = SlotParams{Enabled: true, Delta: 4, MaxMag: 64}
	p.Slots[CPos] = SlotParams{Enabled: true, Delta: 2, MaxMag: 63}
	// CNeg: 64 << 3 = 512 dominates CPos's 63 << 2 = 252.
	if got := p.MaxCodeMag(); got != 512 {
		t.Fatalf("MaxCodeMag = %d, want 512", got)
	}
	// Uniform quantizer: no shifts, just the widest magnitude.
	if got := ParamsForUniform(1, 4).MaxCodeMag(); got != 8 {
		t.Fatalf("uniform MaxCodeMag = %d, want 8", got)
	}
}

func TestQuantizeZero(t *testing.T) {
	p := ParamsForUniform(0.3, 6)
	c := p.Quantize(0)
	if c.Mag != 0 || p.Dequantize(c) != 0 {
		t.Fatalf("zero does not round-trip: %+v", c)
	}
}

func TestQuantizeFinePreferredOverCoarse(t *testing.T) {
	p := &Params{Bits: 8, Mode: ModeA}
	p.Slots[FNeg] = SlotParams{Enabled: true, Delta: 0.1, MaxMag: 64}
	p.Slots[FPos] = SlotParams{Enabled: true, Delta: 0.1, MaxMag: 63}
	p.Slots[CNeg] = SlotParams{Enabled: true, Delta: 0.8, MaxMag: 64}
	p.Slots[CPos] = SlotParams{Enabled: true, Delta: 0.8, MaxMag: 63}
	// 3.0 is representable in both subranges; fine must win (higher
	// resolution, the paper's overlap rule).
	c := p.Quantize(3.0)
	if c.Slot != FPos {
		t.Fatalf("value in fine range quantized to %v", c.Slot)
	}
	// 6.31 exceeds the fine bound (6.3) and must go coarse.
	c = p.Quantize(6.4)
	if c.Slot != CPos {
		t.Fatalf("value beyond fine range quantized to %v", c.Slot)
	}
	// Negative mirror.
	if c := p.Quantize(-3.0); c.Slot != FNeg {
		t.Fatalf("negative fine value quantized to %v", c.Slot)
	}
	if c := p.Quantize(-7.0); c.Slot != CNeg {
		t.Fatalf("negative coarse value quantized to %v", c.Slot)
	}
}

func TestQuantizeClipsAtCoarseBound(t *testing.T) {
	p := ParamsForUniform(1, 4) // positive max 7, negative max -8
	if v := p.Value(100); v != 7 {
		t.Fatalf("positive clip = %v, want 7", v)
	}
	if v := p.Value(-100); v != -8 {
		t.Fatalf("negative clip = %v, want -8", v)
	}
}

func TestQuantizeWrongSideOfOneSided(t *testing.T) {
	src := rng.New(7)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = src.Exp(1) // strictly positive
	}
	p := PRA(xs, 6, DefaultPRAOptions())
	if p.Mode != ModeB {
		t.Fatalf("one-sided tensor got mode %v", p.Mode)
	}
	if v := p.Value(-3); v != 0 {
		t.Fatalf("negative input to non-negative quantizer = %v, want 0 (clip)", v)
	}
}

// modeParams hand-builds the slot layout PRA gives each mode at the given
// bit-width (pra.go), over a base Δ that is not a power of two so no
// quotient is exact by accident. Mode B and C come in both orientations.
func modeParams(bits int, base float64) map[string]*Params {
	half, quarter := int64(1)<<(bits-1), int64(1)<<(bits-2)
	on := func(delta float64, maxMag int64) SlotParams {
		return SlotParams{Enabled: true, Delta: delta, MaxMag: maxMag}
	}
	a := &Params{Bits: bits, Mode: ModeA}
	a.Slots = [4]SlotParams{FNeg: on(base, quarter), FPos: on(base, quarter-1), CNeg: on(8*base, quarter), CPos: on(4*base, quarter-1)}
	bPos := &Params{Bits: bits, Mode: ModeB}
	bPos.Slots[FPos], bPos.Slots[CPos] = on(base, half-1), on(8*base, half-1)
	bNeg := &Params{Bits: bits, Mode: ModeB}
	bNeg.Slots[FNeg], bNeg.Slots[CNeg] = on(base, half), on(8*base, half)
	bFlat := &Params{Bits: bits, Mode: ModeB}
	bFlat.Slots[FNeg] = on(base, half)
	cNeg := &Params{Bits: bits, Mode: ModeC}
	cNeg.Slots[FNeg], cNeg.Slots[FPos], cNeg.Slots[CPos] = on(2*base, quarter), on(base, quarter-1), on(4*base, half-1)
	cPos := &Params{Bits: bits, Mode: ModeC}
	cPos.Slots[FPos], cPos.Slots[FNeg], cPos.Slots[CNeg] = on(2*base, quarter-1), on(base, quarter), on(4*base, half)
	d := &Params{Bits: bits, Mode: ModeD}
	d.Slots[FPos], d.Slots[CNeg] = on(base, half-1), on(2*base, half)
	return map[string]*Params{"A": a, "B+": bPos, "B-": bNeg, "B-flat": bFlat, "C-": cNeg, "C+": cPos, "D": d}
}

// boundaryInputs returns the inputs on which a quantizer's decisions
// flip: for every enabled slot the rounding ties (m+½)·Δ for m from 0 to
// one past MaxMag, on the slot's side of zero; the limits the kernel
// derived; and the float64 neighbours one ulp either side of each. A
// MaxMag too large to walk (the fuzzer's) keeps the ties at both ends.
func boundaryInputs(p *Params) []float64 {
	var xs []float64
	around := func(v float64) {
		xs = append(xs, math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1)))
	}
	for i, sl := range p.Slots {
		if !sl.Enabled || sl.MaxMag < 0 || sl.MaxMag >= 1<<52 {
			continue
		}
		for m := int64(0); m <= sl.MaxMag+1; m++ {
			if m == 1024 && sl.MaxMag > 2048 {
				m = sl.MaxMag - 1024
			}
			v := (float64(m) + 0.5) * sl.Delta
			if Slot(i).Negative() {
				v = -v
			}
			around(v)
		}
	}
	k := p.Kernel()
	for _, lim := range k.limit {
		around(math.Float64frombits(lim))
		around(-math.Float64frombits(lim))
	}
	return xs
}

// edgeInputs are the values every quantizer must get right whatever its
// slots: both zeros, subnormals, the extremes, ±Inf, and NaNs quiet and
// signalling, of both signs.
var edgeInputs = []float64{
	0, math.Copysign(0, -1), 1e-300, -1e-300, 1e300, -1e300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	3e-310, -3e-310, // subnormal
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xFFF8_0000_0000_0000), // quiet
	math.Float64frombits(0x7FF0_0000_0000_0001), math.Float64frombits(0xFFF0_0000_0000_0001), // signalling
}

// TestQuantizeSliceMatchesValue pins the kernel to the scalar
// Quantize+Dequantize path bit for bit (QuantizeSlice's doc promises
// bit-identity, including the sign of zero): every slot layout the
// calibrator can produce, at every bit-width from 3 to 10, on the inputs
// where a decision flips (boundaryInputs), the values that exercise
// clipping, zero-normalization, saturation and the NaN detour, a random
// bulk, and the aliased call — through the vector body where this CPU
// has one and through the portable loop.
func TestQuantizeSliceMatchesValue(t *testing.T) {
	src := rng.New(8)
	calib := make([]float64, 4096)
	for i := range calib {
		calib[i] = src.Laplace(1)
	}
	onePos := make([]float64, 4096)
	oneNeg := make([]float64, 4096)
	for i := range onePos {
		onePos[i] = src.Exp(1)
		oneNeg[i] = -src.Exp(1)
	}
	params := map[string]*Params{
		"pra-two-sided":   PRA(calib, 6, DefaultPRAOptions()),
		"pra-one-sided+":  PRA(onePos, 6, DefaultPRAOptions()),
		"pra-one-sided-":  PRA(oneNeg, 6, DefaultPRAOptions()),
		"uniform-special": ParamsForUniform(0.125, 6),
		// Δ at the bottom of the subnormals and near overflow: the limit
		// walk starts from a rounded-to-grid or infinite (MaxMag+½)·Δ.
		"subnormal-delta": {Bits: 4, Mode: ModeA, Slots: [4]SlotParams{
			{true, 5e-324, 4}, {true, 5e-324, 3}, {true, 4e-323, 4}, {true, 2e-323, 3}}},
		"huge-delta": {Bits: 4, Mode: ModeA, Slots: [4]SlotParams{
			{true, 1e307, 20}, {true, 1e307, 19}, {true, 8e307, 4}, {true, 4e307, 3}}},
	}
	for bits := 3; bits <= 10; bits++ {
		for name, p := range modeParams(bits, 0.0437) {
			params[fmt.Sprintf("mode-%s/b%d", name, bits)] = p
		}
	}
	bothBodies(func(body string) {
		for name, p := range params {
			if k := p.Kernel(); !k.exact {
				t.Fatalf("%s: lanes not derived for a well-formed quantizer %v", name, p)
			}
			xs := append(append([]float64(nil), edgeInputs...), boundaryInputs(p)...)
			for i := 0; i < 2000; i++ {
				switch {
				case src.Float64() < 0.1:
					xs = append(xs, 0)
				case src.Float64() < 0.05:
					xs = append(xs, src.Gauss(0, 1e6)) // deep in the clip region
				default:
					xs = append(xs, src.Laplace(1))
				}
			}
			out := make([]float64, len(xs))
			p.QuantizeSlice(out, xs)
			for i, x := range xs {
				want := p.Value(x)
				if math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("%s, %s: QuantizeSlice(%v) = %v (bits %016x), want %v (bits %016x)",
						body, name, x, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
				}
			}
			// In-place aliasing must produce the same results.
			alias := append([]float64(nil), xs...)
			p.QuantizeSlice(alias, alias)
			for i := range alias {
				if math.Float64bits(alias[i]) != math.Float64bits(out[i]) {
					t.Fatalf("%s, %s: aliased QuantizeSlice diverged at %d", body, name, i)
				}
			}
		}
	})
}

// TestKernelFallsBackOnDegenerateParams: a quantizer the lanes cannot be
// derived for still quantizes, through Value, instead of producing a
// confident wrong answer.
func TestKernelFallsBackOnDegenerateParams(t *testing.T) {
	xs := []float64{-3, -0.4, 0, 0.4, 3, math.NaN(), math.Inf(1)}
	for name, sl := range map[string]SlotParams{
		"zero-delta":     {true, 0, 7},
		"negative-delta": {true, -0.5, 7},
		"nan-delta":      {true, math.NaN(), 7},
		"inf-delta":      {true, math.Inf(1), 7},
		"negative-max":   {true, 0.5, -1},
		"huge-max":       {true, 0.5, 1 << 52},
	} {
		p := ParamsForUniform(0.5, 4)
		p.Slots[CNeg] = sl
		if k := p.Kernel(); k.exact {
			t.Fatalf("%s: lanes derived from %v", name, sl)
		}
		out := make([]float64, len(xs))
		p.QuantizeSlice(out, xs)
		for i, x := range xs {
			if want := p.Value(x); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("%s: QuantizeSlice(%v) = %v, want %v", name, x, out[i], want)
			}
		}
	}
}

func TestQuantizeSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ParamsForUniform(1, 4).QuantizeSlice(make([]float64, 2), make([]float64, 3))
}
