package qub

import (
	"math"
	"testing"
	"testing/quick"

	"quq/internal/dist"
	"quq/internal/quant"
	"quq/internal/rng"
)

func calibrated(fam dist.Family, bits int, seed uint64) (*quant.Params, []float64) {
	xs := dist.Sample(fam, 1<<13, rng.New(seed))
	return quant.PRA(xs, bits, quant.DefaultPRAOptions()), xs
}

func TestSpaceRegPackRoundTrip(t *testing.T) {
	cases := []SpaceReg{
		{Used: true, Both: true, ShNeg: 0, ShPos: 0},
		{Used: true, Both: true, ShNeg: 7, ShPos: 3},
		{Used: true, NegSide: true, ShNeg: 5},
		{Used: true, ShPos: 2},
	}
	for _, c := range cases {
		b, err := c.Pack()
		if err != nil {
			t.Fatalf("Pack(%+v): %v", c, err)
		}
		got := unpackSpace(b)
		if got != c {
			t.Errorf("round trip: %+v -> %08b -> %+v", c, b, got)
		}
	}
}

func TestSpaceRegPackRejectsWideShift(t *testing.T) {
	if _, err := (SpaceReg{Used: true, ShPos: 8}).Pack(); err == nil {
		t.Fatal("Pack accepted a 4-bit shift")
	}
}

func TestPackLayoutMatchesPaper(t *testing.T) {
	// c7 = both-signs flag, c6 = merged-side-negative, c5-3 = log2 s_neg,
	// c2-0 = log2 s_pos.
	b, err := (SpaceReg{Used: true, Both: true, ShNeg: 3, ShPos: 5}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if b != 0b1_0_011_101 {
		t.Fatalf("packed = %08b, want 10011101", b)
	}
}

func TestRegistersForAllFamilies(t *testing.T) {
	for _, fam := range dist.Families {
		for _, bits := range []int{4, 6, 8} {
			p, _ := calibrated(fam, bits, 42)
			r, err := RegistersFor(p)
			if err != nil {
				t.Fatalf("%v b=%d: %v", fam, bits, err)
			}
			if r.Bits != bits || r.BaseDelta != p.BaseDelta() {
				t.Fatalf("%v b=%d: registers carry wrong metadata", fam, bits)
			}
		}
	}
}

func TestRegistersForModeShapes(t *testing.T) {
	// Mode A (pre-addition): both spaces serve both signs.
	p, _ := calibrated(dist.PreAddition, 6, 42)
	if p.Mode != quant.ModeA {
		t.Skipf("expected Mode A, got %v", p.Mode)
	}
	r, err := RegistersFor(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.F.Both || !r.C.Both {
		t.Fatalf("Mode A registers: F=%+v C=%+v", r.F, r.C)
	}

	// Mode B (post-softmax): both spaces merged positive.
	p, _ = calibrated(dist.PostSoftmax, 6, 42)
	if p.Mode != quant.ModeB {
		t.Skipf("expected Mode B, got %v", p.Mode)
	}
	r, err = RegistersFor(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.F.Both || r.F.NegSide || r.C.Both || r.C.NegSide {
		t.Fatalf("Mode B registers: F=%+v C=%+v", r.F, r.C)
	}

	// Mode C (post-GELU): fine both, coarse merged positive.
	p, _ = calibrated(dist.PostGELU, 6, 42)
	if p.Mode != quant.ModeC {
		t.Skipf("expected Mode C, got %v", p.Mode)
	}
	r, err = RegistersFor(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.F.Both || r.C.Both || r.C.NegSide {
		t.Fatalf("Mode C registers: F=%+v C=%+v", r.F, r.C)
	}
}

func TestRegistersForRejectsWideShift(t *testing.T) {
	p := &quant.Params{Bits: 8, Mode: quant.ModeA}
	p.Slots[quant.FNeg] = quant.SlotParams{Enabled: true, Delta: 1, MaxMag: 64}
	p.Slots[quant.FPos] = quant.SlotParams{Enabled: true, Delta: 1, MaxMag: 63}
	p.Slots[quant.CNeg] = quant.SlotParams{Enabled: true, Delta: 256, MaxMag: 64} // shift 8
	p.Slots[quant.CPos] = quant.SlotParams{Enabled: true, Delta: 256, MaxMag: 63}
	if _, err := RegistersFor(p); err == nil {
		t.Fatal("RegistersFor accepted shift 8")
	}
}

func TestRegistersForRejectsOversizedMag(t *testing.T) {
	p := &quant.Params{Bits: 8, Mode: quant.ModeA}
	p.Slots[quant.FNeg] = quant.SlotParams{Enabled: true, Delta: 1, MaxMag: 65} // > 2^(b-2)
	p.Slots[quant.FPos] = quant.SlotParams{Enabled: true, Delta: 1, MaxMag: 63}
	if _, err := RegistersFor(p); err == nil {
		t.Fatal("RegistersFor accepted MaxMag beyond the signed layout")
	}
}

// TestEncodeDecodeRoundTrip is the central codec property: for every
// family, bit-width and sample, decoding the encoded word reproduces the
// fake-quantized value exactly (the scale factors are exact power-of-two
// multiples of the base, so no floating-point slack is needed).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, fam := range dist.Families {
		for _, bits := range []int{4, 6, 8} {
			p, xs := calibrated(fam, bits, 42)
			r, err := RegistersFor(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range xs[:4000] {
				want := p.Value(x)
				got := Decode(EncodeValue(p, x), r).Value(r.BaseDelta)
				if got != want {
					t.Fatalf("%v b=%d x=%v: decoded %v, fake-quant %v", fam, bits, x, got, want)
				}
			}
		}
	}
}

func TestDecodedFitsBitWidth(t *testing.T) {
	// Eq. (7): after decoding, D must fit in a signed b-bit integer so a
	// plain b-bit signed multiplier can process any mode.
	src := rng.New(5)
	for _, fam := range dist.Families {
		for _, bits := range []int{4, 6, 8} {
			p, xs := calibrated(fam, bits, 42)
			r, err := RegistersFor(p)
			if err != nil {
				t.Fatal(err)
			}
			lo := -(int32(1) << (bits - 1))
			hi := int32(1)<<(bits-1) - 1
			for i := 0; i < 2000; i++ {
				x := xs[src.Intn(len(xs))] * src.Uniform(0, 2)
				d := Decode(EncodeValue(p, x), r)
				if d.D < lo || d.D > hi {
					t.Fatalf("%v b=%d: D=%d outside signed %d-bit range", fam, bits, d.D, bits)
				}
				if int(d.Nsh) > MaxShift {
					t.Fatalf("%v b=%d: nsh=%d beyond register range", fam, bits, d.Nsh)
				}
			}
		}
	}
}

func TestMergedNegativeZeroDeviation(t *testing.T) {
	// Documented deviation: a non-positive tensor's exact zero encodes
	// as −Δ in the merged negative space.
	src := rng.New(6)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = -src.Exp(1)
	}
	p := quant.PRA(xs, 6, quant.DefaultPRAOptions())
	r, err := RegistersFor(p)
	if err != nil {
		t.Fatal(err)
	}
	got := Decode(EncodeValue(p, 0), r).Value(r.BaseDelta)
	fineDelta := p.Slot(quant.FNeg).Delta
	if got != -fineDelta {
		t.Fatalf("zero decoded to %v, want -Δ_F = %v", got, -fineDelta)
	}
}

func TestUniformSpecialCaseRoundTrip(t *testing.T) {
	// ParamsForUniform (Mode D with Δ_C− = Δ_F+) must be fully QUB-
	// representable and reproduce the uniform quantizer bit for bit.
	src := rng.New(7)
	for _, bits := range []int{4, 6, 8} {
		p := quant.ParamsForUniform(0.37, bits)
		r, err := RegistersFor(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			x := src.Gauss(0, 5)
			want := quant.Uniform(x, 0.37, bits)
			got := Decode(EncodeValue(p, x), r).Value(r.BaseDelta)
			if got != want {
				t.Fatalf("b=%d x=%v: %v != uniform %v", bits, x, got, want)
			}
		}
	}
}

func TestDotMatchesFloatDot(t *testing.T) {
	// Eq. (5): the integer accumulation times Δx·Δw equals the dot
	// product of the fake-quantized vectors.
	src := rng.New(8)
	wdata := dist.Sample(dist.QueryWeight, 256, src.Split())
	xdata := dist.Sample(dist.PostGELU, 256, src.Split())
	pw := quant.PRA(wdata, 6, quant.DefaultPRAOptions())
	px := quant.PRA(xdata, 6, quant.DefaultPRAOptions())
	rw, err := RegistersFor(pw)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := RegistersFor(px)
	if err != nil {
		t.Fatal(err)
	}
	ws := EncodeTensor(pw, wdata)
	xs := EncodeTensor(px, xdata)

	intAcc := Dot(xs, ws, rx, rw)
	got := float64(intAcc) * rx.BaseDelta * rw.BaseDelta

	var want float64
	for i := range wdata {
		want += px.Value(xdata[i]) * pw.Value(wdata[i])
	}
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("integer dot %v != float dot %v", got, want)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot(make([]Word, 2), make([]Word, 3), Registers{Bits: 8}, Registers{Bits: 8})
}

func TestEncodeDecodePropertyRandomQuantizers(t *testing.T) {
	// Property: for random calibrated quantizers and random inputs, the
	// codec round-trips the fake-quantized value whenever the registers
	// are representable.
	seedSrc := rng.New(99)
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 256 + src.Intn(1024)
		xs := make([]float64, n)
		scale := math.Exp(src.Uniform(-4, 4))
		for i := range xs {
			v := src.Laplace(scale)
			if src.Float64() < 0.02 {
				v *= 12
			}
			xs[i] = v
		}
		bits := []int{4, 6, 8}[src.Intn(3)]
		p := quant.PRA(xs, bits, quant.DefaultPRAOptions())
		r, err := RegistersFor(p)
		if err != nil {
			return true // unrepresentable shift: legitimately rejected
		}
		for i := 0; i < 200; i++ {
			x := src.Gauss(0, 3*scale)
			if x == 0 {
				continue
			}
			if Decode(EncodeValue(p, x), r).Value(r.BaseDelta) != p.Value(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f(seedSrc.Uint64()) }, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackExhaustive(t *testing.T) {
	// Every representable register configuration must round-trip.
	for _, both := range []bool{false, true} {
		for _, neg := range []bool{false, true} {
			for shNeg := uint8(0); shNeg <= MaxShift; shNeg++ {
				for shPos := uint8(0); shPos <= MaxShift; shPos++ {
					r := SpaceReg{Used: true, Both: both, NegSide: neg, ShNeg: shNeg, ShPos: shPos}
					b, err := r.Pack()
					if err != nil {
						t.Fatal(err)
					}
					if got := unpackSpace(b); got != r {
						t.Fatalf("round trip %+v -> %+v", r, got)
					}
				}
			}
		}
	}
}

func TestDotPropertyAcrossFamilyPairs(t *testing.T) {
	// The Eq. (5) integer dot product must match the float dot product of
	// the fake-quantized vectors for every pairing of data families and
	// every bit-width (hence every mode combination).
	for _, famX := range dist.Families {
		for _, famW := range dist.Families {
			for _, bits := range []int{4, 6, 8} {
				xs := dist.Sample(famX, 192, rng.New(uint64(famX)*7+uint64(bits)))
				ws := dist.Sample(famW, 192, rng.New(uint64(famW)*13+uint64(bits)))
				px := quant.PRA(xs, bits, quant.DefaultPRAOptions())
				pw := quant.PRA(ws, bits, quant.DefaultPRAOptions())
				rx, err := RegistersFor(px)
				if err != nil {
					t.Fatalf("%v b=%d: %v", famX, bits, err)
				}
				rw, err := RegistersFor(pw)
				if err != nil {
					t.Fatalf("%v b=%d: %v", famW, bits, err)
				}
				got := float64(Dot(EncodeTensor(px, xs), EncodeTensor(pw, ws), rx, rw)) * rx.BaseDelta * rw.BaseDelta
				var want float64
				for i := range xs {
					want += px.Value(xs[i]) * pw.Value(ws[i])
				}
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("%v×%v b=%d: integer %v != float %v", famX, famW, bits, got, want)
				}
			}
		}
	}
}

func TestDecodeTensorMatchesScalarDecode(t *testing.T) {
	p, xs := calibrated(dist.PreAddition, 8, 11)
	r, err := RegistersFor(p)
	if err != nil {
		t.Fatal(err)
	}
	ws := EncodeTensor(p, xs[:512])
	vals := DecodeTensor(ws, r)
	for i, w := range ws {
		if vals[i] != Decode(w, r).Value(r.BaseDelta) {
			t.Fatalf("DecodeTensor[%d] mismatch", i)
		}
	}
}

// unpackSpace parses an 8-bit FC register, the inverse of SpaceReg.Pack.
// The Used flag is set: a packed register always describes a live space.
func unpackSpace(b uint8) SpaceReg {
	return SpaceReg{
		Used:    true,
		Both:    b&(1<<7) != 0,
		NegSide: b&(1<<6) != 0,
		ShNeg:   (b >> 3) & 7,
		ShPos:   b & 7,
	}
}
