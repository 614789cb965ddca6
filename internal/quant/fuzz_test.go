package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// fuzzFloats decodes the fuzz payload into a bounded slice of finite
// float64 samples (NaN/Inf chunks are dropped; PRA documents finite
// input).
func fuzzFloats(data []byte) []float64 {
	n := len(data) / 8
	if n > 256 {
		n = 256
	}
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		xs = append(xs, v)
	}
	return xs
}

func fuzzSeed(vals ...float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

// fuzzPRAOptions decodes PRAOptions from the fuzz payload: QInit in
// [0, 1], QAccept in [-0.5, 1.5], QStep in (0, 1] no finer than 1/1024,
// λ_A in [0, 16). Options whose quantile walk leaves [0, 1] are among
// them; PRA must reject those.
func fuzzPRAOptions(qInit, qAccept, qStep uint16, lambda uint8, noSwitch bool) PRAOptions {
	return PRAOptions{
		LambdaA:           float64(lambda) / 16,
		QInit:             float64(qInit) / math.MaxUint16,
		QAccept:           2*float64(qAccept)/math.MaxUint16 - 0.5,
		QStep:             float64(1+qStep%1024) / 1024,
		DisableModeSwitch: noSwitch,
	}
}

// FuzzPRA asserts the Algorithm 2 contract on arbitrary finite
// calibration slices and options: PRA returns a parameter set satisfying
// the Eq. (4) power-of-two invariant (Validate == nil), whose
// fake-quantized values are finite, and equal to praReference's — the
// same algorithm over fully sorted magnitudes. It panics, with a
// check.InvariantError, exactly on options whose quantile walk praQMin
// rejects.
func FuzzPRA(f *testing.F) {
	// The paper's settings, as close as the decoding gets.
	for _, seed := range []struct {
		data []byte
		bits uint8
	}{
		{fuzzSeed(0.1, -0.2, 3.5, -4.25, 0.01, 12.0), 6},
		{fuzzSeed(1, 2, 4, 8, 1024), 8},
		{fuzzSeed(-0.5, -0.25, -1e-3), 5},             // one-signed: Mode B
		{fuzzSeed(1e-310, 2e300, -1e-310, -2e300), 3}, // denormal + near-overflow
		{fuzzSeed(0, 0, 0), 4},                        // all-zero tensor
		{fuzzSeed(0.001, 0.002, 100000), 6},           // extreme tail
	} {
		f.Add(seed.data, seed.bits, uint16(64880), uint16(31129), uint16(9), uint8(64), false)
	}
	f.Add(fuzzSeed(-1, -0.5, 0.5, 1, 2, 3), uint8(6), uint16(65535), uint16(16384), uint16(0), uint8(255), false) // walk from 1 to 0 in 1024 steps
	f.Add(fuzzSeed(-1, -0.5, 0.5, 1, 2, 3), uint8(6), uint16(20000), uint16(0), uint16(100), uint8(255), false)   // walk below 0: rejected
	f.Add(fuzzSeed(-3, -1, 0.5, 0.75, 2, 3, 4), uint8(5), uint16(0), uint16(65535), uint16(0), uint8(255), true)  // QInit 0, no switch

	f.Fuzz(func(t *testing.T, data []byte, bitsRaw uint8, qInit, qAccept, qStep uint16, lambda uint8, noSwitch bool) {
		bits := 3 + int(bitsRaw%6) // 3..8, the useful PTQ range
		xs := fuzzFloats(data)
		opts := fuzzPRAOptions(qInit, qAccept, qStep, lambda, noSwitch)
		if walkPanics(opts) {
			mustInvariantPanic(t, fmt.Sprintf("PRA under %+v", opts), func() { PRA(xs, bits, opts) })
			return
		}
		p := PRA(xs, bits, opts)
		if err := p.Validate(); err != nil {
			t.Fatalf("PRA returned invalid params for %d samples at %d bits: %v\n%v", len(xs), bits, err, p)
		}
		if want := praReference(xs, bits, opts); !reflect.DeepEqual(p, want) {
			t.Fatalf("PRA under %+v at %d bits on %d samples = %v, over fully sorted magnitudes %v", opts, bits, len(xs), p, want)
		}
		for i, x := range xs {
			if i == 64 {
				break
			}
			if v := p.Value(x); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("fake-quantizing finite %v produced %v under %v", x, v, p)
			}
		}
	})
}

// walkPanics reports whether praQMin rejects opts.
func walkPanics(opts PRAOptions) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	praQMin(opts)
	return false
}

// FuzzQuantizeSlice holds the kernel to its specification on inputs no
// calibrator produces: arbitrary slot fields — disabled sides, zero,
// negative, NaN and infinite Δ, MaxMag of any sign and size — against
// arbitrary float64 bit patterns. QuantizeSlice must equal Value bit for
// bit, element-wise, separately and aliased — on the fuzzer's values and
// on the ones where this Params' decisions flip (boundaryInputs), through
// the vector body where this CPU has one and through the portable loop;
// deriving the lanes must terminate (the walk is bounded) and a Params
// it cannot handle must fall back rather than answer wrongly.
func FuzzQuantizeSlice(f *testing.F) {
	f.Add(true, 0.5, int64(16), true, 0.5, int64(15), true, 4.0, int64(16), true, 2.0, int64(15), fuzzSeed(0.24, 0.25, 0.26, -7.9, 8.25, -1e9))
	f.Add(false, 0.0, int64(0), true, 0.0437, int64(31), true, 0.0874, int64(32), false, 0.0, int64(0), fuzzSeed(0, math.Copysign(0, -1), math.Inf(1), math.NaN()))
	f.Add(true, 5e-324, int64(3), false, 1.0, int64(0), false, 1.0, int64(0), false, 1.0, int64(0), fuzzSeed(-5e-324, -2e-323, 1))
	f.Add(true, -1.0, int64(4), true, math.Inf(1), int64(-2), true, math.NaN(), int64(1)<<60, true, 0.0, int64(7), fuzzSeed(1, -1))
	f.Add(true, 1e308, int64(1000), true, 1e308, int64(1000), true, 1.7e308, int64(3), true, 1.7e308, int64(3), fuzzSeed(1e308, -1.79e308, math.Inf(-1)))

	f.Fuzz(func(t *testing.T,
		e0 bool, d0 float64, m0 int64, e1 bool, d1 float64, m1 int64,
		e2 bool, d2 float64, m2 int64, e3 bool, d3 float64, m3 int64, data []byte) {
		p := &Params{Bits: 8, Slots: [4]SlotParams{{e0, d0, m0}, {e1, d1, m1}, {e2, d2, m2}, {e3, d3, m3}}}
		xs := make([]float64, min(len(data)/8, 256))
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		xs = append(xs, boundaryInputs(p)...)
		bothBodies(func(body string) {
			out := make([]float64, len(xs))
			p.QuantizeSlice(out, xs)
			for i, x := range xs {
				if want := p.Value(x); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("%s: QuantizeSlice(%v [%016x]) = %v [%016x], Value = %v [%016x] under %+v",
						body, x, math.Float64bits(x), out[i], math.Float64bits(out[i]), want, math.Float64bits(want), p.Slots)
				}
			}
			alias := append([]float64(nil), xs...)
			p.QuantizeSlice(alias, alias)
			for i := range alias {
				if math.Float64bits(alias[i]) != math.Float64bits(out[i]) {
					t.Fatalf("%s: aliased QuantizeSlice diverged at %d (%v) under %+v", body, i, xs[i], p.Slots)
				}
			}
		})
	})
}

// FuzzUniform holds QUQ's uniform special case to U_b, the paper's
// Eq. (1): the kernel of ParamsForUniform(Δ, b) — what every per-tensor
// uniform site of the comparison methods runs — equals Uniform(x, Δ, b)
// bit for bit, in place, through both kernel bodies, for b in 3..16, on
// arbitrary float bits (NaN included), the edge values and the inputs
// where its decisions flip.
func FuzzUniform(f *testing.F) {
	seed := fuzzSeed(0, math.Copysign(0, -1), 0.3, -2.5, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324)
	f.Add(seed, 1.0, uint8(3))
	f.Add(seed, 1e-300, uint8(13))
	f.Add(seed, 0.0625, uint8(0))
	f.Add(seed, 0.37, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, delta float64, bitsRaw uint8) {
		if !(delta > 0) {
			t.Skip()
		}
		bits := 3 + int(bitsRaw%14)
		p := ParamsForUniform(delta, bits)
		xs := make([]float64, min(len(data)/8, 256))
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		xs = append(append(xs, edgeInputs...), boundaryInputs(p)...)
		bothBodies(func(body string) {
			out := append([]float64(nil), xs...)
			p.QuantizeSlice(out, out)
			for i, x := range xs {
				if want := Uniform(x, delta, bits); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("%s: ParamsForUniform(%v, %d) quantizes %v [%016x] to %v [%016x], Uniform to %v [%016x]",
						body, delta, bits, x, math.Float64bits(x), out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
				}
			}
		})
	})
}
