package qub

import (
	"encoding/binary"
	"math"
	"testing"

	"quq/internal/quant"
)

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

// FuzzQUBRoundtrip calibrates a quantizer on the fuzzed samples (PRA +
// uniform-candidate selection, all four modes reachable) and asserts
// the §4.1 contract: for every sample, Encode→Decode reproduces the
// fake-quantization value. The one documented deviation is the merged
// negative space, which has no exact-zero word and decodes zero-
// magnitude codes as −Δ (see the package comment).
func FuzzQUBRoundtrip(f *testing.F) {
	f.Add(fuzzSeed(0.1, -0.2, 3.5, -4.25, 0.01, 12.0), uint8(6)) // two-sided, long tails
	f.Add(fuzzSeed(1, 2, 4, 8, 16, 1000), uint8(8))              // one-signed: Mode B
	f.Add(fuzzSeed(-0.5, -0.25, -1e-3, -80), uint8(5))           // merged negative space
	f.Add(fuzzSeed(0.01, 0.02, 0.03, 0.04), uint8(4))            // short-tailed: uniform candidate
	f.Add(fuzzSeed(1e-310, 2e300, -1e-310, -2e300), uint8(3))    // extreme dynamic range

	f.Fuzz(func(t *testing.T, data []byte, bitsRaw uint8) {
		bits := 3 + int(bitsRaw%6)
		xs := fuzzFloats(data)
		if len(xs) == 0 {
			t.Skip("no finite samples")
		}
		p := quant.Calibrate(xs, bits, quant.DefaultPRAOptions())
		regs, err := RegistersFor(p)
		if err != nil {
			// Subrange shift beyond the 3-bit FC field: the parameters are
			// valid QUQ but not QUB-representable; rejecting them is the
			// contract, not a failure.
			t.Skip(err)
		}

		for _, space := range []SpaceReg{regs.F, regs.C} {
			if !space.Used {
				continue
			}
			packed, err := space.Pack()
			if err != nil {
				t.Fatalf("RegistersFor accepted an unpackable space: %v", err)
			}
			if u := unpackSpace(packed); u != space {
				t.Fatalf("register roundtrip: packed %+v, unpacked %+v", space, u)
			}
		}

		for i, x := range xs {
			if i == 64 {
				break
			}
			c := p.Quantize(x)
			want := p.Dequantize(c)
			if c.Mag == 0 {
				space := regs.C
				if c.Slot.Fine() {
					space = regs.F
				}
				if !space.Both && space.NegSide {
					// Merged-negative zero deviation: encodes as one fine LSB.
					want = p.Dequantize(quant.Code{Slot: c.Slot, Mag: 1})
				}
			}
			got := Decode(Encode(p, c), regs).Value(regs.BaseDelta)
			if want == 0 {
				if got != 0 {
					t.Fatalf("x=%v code=%+v: zero decodes to %v under %v", x, c, got, p)
				}
				continue
			}
			// The decode path reconstructs mag·Δ_slot as (mag<<shift)·Δ_base;
			// the shift is exact, the Δ ratio is power-of-two to within
			// Validate's tolerance, so the paths agree to ~1e-9 relative.
			if diff := math.Abs(got - want); diff > 1e-6*math.Abs(want) {
				t.Fatalf("x=%v code=%+v: decoded %v, fake-quantized %v (params %v)", x, c, got, want, p)
			}
		}
	})
}
