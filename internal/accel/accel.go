// Package accel implements the quadruplet uniform accelerator (QUA) of
// the paper's Figure 6 as a cycle-approximate, bit-exact simulator:
//
//   - a weight-stationary PE array that multiplies decoded QUB operands
//     (D, n_sh) and accumulates the Eq. (5) shifted products in wide
//     integer registers;
//   - decoding units (DUs) on the operand paths implementing Eq. (6);
//   - quantization units (QUs) that rescale accumulator values with an
//     integer multiply-and-shift (M/2^N) and requantize into the output
//     tensor's QUB encoding, selecting the dynamic subrange shift s_y by
//     magnitude comparison against power-of-two boundaries (a leading-
//     zero count in hardware);
//   - a cycle model for the systolic GEMM schedule.
//
// The package is an executor with cost accounting, not a calibrator: the
// block and model runners run the quantizers internal/ptq calibrated, and
// the package tests hold a per-GEMM oracle on the served forward —
// serving, this simulator and the QUB spec agree on every accumulator.
package accel

import (
	"fmt"
	"math"

	"quq/internal/quant"
	"quq/internal/qub"
	"quq/internal/tensor"
)

// ArrayConfig sizes the PE array.
type ArrayConfig struct {
	// N is the array side (N×N PEs).
	N int
	// Bits is the operand bit-width.
	Bits int
	// PipelineFill is the extra cycles to fill/drain the systolic
	// pipeline per tile (defaults to 2N).
	PipelineFill int
}

// DefaultArray returns the paper's 16×16 array at the given bit-width.
func DefaultArray(bits int) ArrayConfig { return ArrayConfig{N: 16, Bits: bits} }

// GEMMStats reports the cycle model's accounting for one M×K×N GEMM.
type GEMMStats struct {
	M, K, N     int
	Tiles       int
	Cycles      int64
	MACs        int64
	Utilization float64
}

// Cycles estimates the systolic schedule: each output tile of n×n
// elements streams K partial products plus pipeline fill/drain.
func (c ArrayConfig) Cycles(m, k, n int) GEMMStats {
	fill := c.PipelineFill
	if fill == 0 {
		fill = 2 * c.N
	}
	tilesM := (m + c.N - 1) / c.N
	tilesN := (n + c.N - 1) / c.N
	tiles := tilesM * tilesN
	cycles := int64(tiles) * int64(k+fill)
	macs := int64(m) * int64(k) * int64(n)
	//quq:float-ok utilization is a reporting statistic of the cycle model, not a value on the simulated datapath
	util := float64(macs) / (float64(cycles) * float64(c.N) * float64(c.N))
	return GEMMStats{M: m, K: k, N: n, Tiles: tiles, Cycles: cycles, MACs: macs, Utilization: util}
}

// Rescale is the QU's integer scaling: value ≈ acc · M / 2^N, with M and
// N chosen so that M/2^N approximates the real scale within 2^-16
// (Eq. (2)'s integer-only substitution).
type Rescale struct {
	M int64
	N uint
}

// NewRescale approximates scale ∈ (0, 2^30) as M/2^N with a 16-bit M.
//
//quq:float-ok converting the real scale into its integer M/2^N substitute is offline QU configuration; the per-element Apply path is pure integer
func NewRescale(scale float64) (Rescale, error) {
	if !(scale > 0) || math.IsInf(scale, 0) {
		return Rescale{}, fmt.Errorf("accel: invalid rescale factor %v", scale)
	}
	// Normalize scale into [2^14, 2^15) by choosing N.
	n := 0
	s := scale
	for s < 1<<14 {
		s *= 2
		n++
		if n > 62 {
			return Rescale{}, fmt.Errorf("accel: rescale factor %v too small", scale)
		}
	}
	for s >= 1<<15 {
		s /= 2
		n--
		if n < -30 {
			return Rescale{}, fmt.Errorf("accel: rescale factor %v too large", scale)
		}
	}
	if n < 0 {
		// Large scales: fold the excess back into M.
		return Rescale{M: int64(math.Round(scale)), N: 0}, nil
	}
	return Rescale{M: int64(math.Round(s)), N: uint(n)}, nil
}

// Apply computes round(acc · M / 2^N) in integer arithmetic.
func (r Rescale) Apply(acc int64) int64 {
	p := acc * r.M
	if r.N == 0 {
		return p
	}
	// Round-to-nearest on the right shift.
	half := int64(1) << (r.N - 1)
	if p >= 0 {
		return (p + half) >> r.N
	}
	return -((-p + half) >> r.N)
}

// QuantizeUnit requantizes integer accumulator values into an output
// tensor's QUQ code space. The unit works entirely on integers: the
// accumulator value is rescaled to units of the *base* output Δ, then the
// subrange is selected by magnitude comparison against the power-of-two
// subrange boundaries and the code is produced by a rounding right-shift
// of s_y bits — the leading-zero-detector datapath of §4.2.
type QuantizeUnit struct {
	Params *quant.Params
	// scale converts accumulator units into units of the output base Δ.
	scale Rescale
	// fracBits is the sub-LSB precision kept during subrange selection.
	fracBits uint
	// bias, when set, is the layer bias per output column in accumulator
	// units: the GEMM adds it to the accumulator before requantizing.
	bias []int64
}

// NewQuantizeUnit builds a QU for an output quantized with outParams,
// where one accumulator unit is worth accUnit in real terms (for a GEMM
// of QUB operands, accUnit = Δx·Δw).
func NewQuantizeUnit(outParams *quant.Params, accUnit float64) (*QuantizeUnit, error) {
	if err := outParams.Validate(); err != nil {
		return nil, err
	}
	const fracBits = 8
	//quq:float-ok one-time QU configuration: the float ratio is immediately frozen into the integer M/2^N rescaler
	sc, err := NewRescale(accUnit / outParams.BaseDelta() * (1 << fracBits))
	if err != nil {
		return nil, err
	}
	return &QuantizeUnit{Params: outParams, scale: sc, fracBits: fracBits}, nil
}

// Requantize maps an integer accumulator value to the output QUB code.
func (q *QuantizeUnit) Requantize(acc int64) quant.Code {
	// v = value in units of the base Δ, with fracBits fractional bits.
	v := q.scale.Apply(acc)
	neg := v < 0
	if neg {
		v = -v
	}
	var fine, coarse quant.Slot
	if neg {
		fine, coarse = quant.FNeg, quant.CNeg
	} else {
		fine, coarse = quant.FPos, quant.CPos
	}
	f := q.Params.Slot(fine)
	c := q.Params.Slot(coarse)
	code := func(slot quant.Slot, sp quant.SlotParams) quant.Code {
		// mag = round(v / 2^(shift+fracBits)): a rounding right-shift by
		// s_y (+ the fractional guard bits).
		sh := uint(q.Params.Shift(slot)) + q.fracBits
		mag := (v + int64(1)<<(sh-1)) >> sh
		if mag > sp.MaxMag {
			mag = sp.MaxMag
		}
		if mag == 0 {
			return q.Params.Quantize(0)
		}
		return quant.Code{Slot: slot, Mag: mag}
	}
	if f.Enabled {
		// Fine-representable? Compare against the fine bound — in
		// hardware a leading-zero count, since the bound is Δ_F·MaxMag
		// with MaxMag+rounding at a power-of-two position.
		sh := uint(q.Params.Shift(fine)) + q.fracBits
		mag := (v + int64(1)<<(sh-1)) >> sh
		if mag <= f.MaxMag || !c.Enabled {
			return code(fine, f)
		}
	}
	if c.Enabled {
		return code(coarse, c)
	}
	return q.Params.Quantize(0)
}

// GEMM runs a bit-exact QUB matrix multiply on the array: x is [M, K]
// and w is [K, N], both already QUB-encoded with their registers; the
// result is requantized by qu into [M, N] QUB words plus the cycle
// statistics. Accumulation is int64 (the hardware's 32-bit accumulators
// never overflow at the paper's sizes; the tests check the bound).
type GEMMResult struct {
	Out   []qub.Word
	Acc   []int64
	Stats GEMMStats
	// MaxAbsAcc is the largest |accumulator| seen (for width checks).
	MaxAbsAcc int64
}

// GEMM multiplies QUB-encoded x [m,k] by w [k,n]. Both operand streams
// are decoded once into pooled arena scratch (each DU decodes a stream),
// folding the Eq. (5) subrange shift into the decoded value: the
// original per-MAC product (D_a·D_b) << (n_a+n_b) equals
// (D_a<<n_a)·(D_b<<n_b) exactly — shifts distribute over products mod
// 2^64 — so pre-shifting is bit-exact and removes the shift from the
// inner loop, which runs on the tensor kernel layer's tiled/SIMD int64
// GEMM. For a weight operand reused across calls, prepare it once with
// PrepareQuantized and use GEMMPrepared instead.
//
//quq:hotpath per-inference integer GEMM; decode scratch is arena-pooled, only the escaping result is allocated
func (c ArrayConfig) GEMM(x []qub.Word, rx qub.Registers, w []qub.Word, rw qub.Registers, m, k, n int, qu *QuantizeUnit) (*GEMMResult, error) {
	if len(x) != m*k || len(w) != k*n {
		return nil, fmt.Errorf("accel: GEMM operand sizes %d,%d do not match %dx%dx%d", len(x), len(w), m, k, n)
	}
	ar := tensor.GetArena()
	defer ar.Release()
	vw := ar.Int64(len(w))
	decodeWords(vw, w, rw)
	res, err := c.gemmDecoded(ar, x, rx, vw, m, k, n, qu)
	ar.PutInt64(vw)
	return res, err
}

// GEMMPrepared multiplies QUB-encoded x [m,k] by a resident prepared
// operand w [k, w.Cols] — decoded once at prepare time and reused across
// calls, so the steady state decodes only the activation stream.
// Bit-identical to GEMM over the words w was prepared from.
//
//quq:hotpath per-inference integer GEMM; decode scratch is arena-pooled, only the escaping result is allocated
func (c ArrayConfig) GEMMPrepared(x []qub.Word, rx qub.Registers, w *PreparedOperand, m, k int, qu *QuantizeUnit) (*GEMMResult, error) {
	if len(x) != m*k || w.Rows != k || len(w.V) != w.Rows*w.Cols {
		return nil, fmt.Errorf("accel: GEMMPrepared operand sizes %d,%dx%d do not match m=%d k=%d", len(x), w.Rows, w.Cols, m, k)
	}
	ar := tensor.GetArena()
	defer ar.Release()
	return c.gemmDecoded(ar, x, rx, w.V, m, k, w.Cols, qu)
}

// gemmDecoded is the shared GEMM core: decode the activation stream into
// arena scratch, multiply on the int64 kernel layer, then scan for the
// accumulator-width statistic and requantize.
//
//quq:hotpath per-inference integer GEMM core; decode scratch is arena-pooled, only the escaping result is allocated
func (c ArrayConfig) gemmDecoded(ar *tensor.Arena, x []qub.Word, rx qub.Registers, vw []int64, m, k, n int, qu *QuantizeUnit) (*GEMMResult, error) {
	vx := ar.Int64(len(x))
	decodeWords(vx, x, rx)
	res := &GEMMResult{
		Out:   make([]qub.Word, m*n), //quq:hotalloc-ok the result escapes to the caller; per-call scratch is the arena-pooled decode buffer above
		Acc:   make([]int64, m*n),    //quq:hotalloc-ok the result escapes to the caller; per-call scratch is the arena-pooled decode buffer above
		Stats: c.Cycles(m, k, n),
	}
	tensor.IntMatMulInto(res.Acc, vx, vw, m, k, n)
	ar.PutInt64(vx)
	for i, acc := range res.Acc {
		if aa := abs64(acc); aa > res.MaxAbsAcc {
			res.MaxAbsAcc = aa
		}
		if qu != nil {
			if qu.bias != nil {
				acc += qu.bias[i%n]
			}
			res.Out[i] = qub.Encode(qu.Params, qu.Requantize(acc))
		}
	}
	return res, nil
}

// decodeWords decodes a QUB word stream into pre-shifted int64 values
// v = D << n_sh; see the GEMM doc for why pre-shifting is bit-exact.
func decodeWords(dst []int64, ws []qub.Word, r qub.Registers) {
	for i, w := range ws {
		d := qub.Decode(w, r)
		dst[i] = int64(d.D) << d.Nsh
	}
}

// abs64 returns |v|, saturating at MaxInt64 for MinInt64 — whose true
// magnitude is not representable in int64, and whose two's-complement
// negation is itself (negative). Returning that negative value would
// silently corrupt the MaxAbsAcc accumulator-width statistic and every
// overflow bound computed from it.
func abs64(v int64) int64 {
	if v < 0 {
		if v == math.MinInt64 {
			return math.MaxInt64
		}
		return -v
	}
	return v
}

// QuantizedLinear bundles everything needed to run one quantized layer on
// the array: the operands' QUQ parameters and registers.
type QuantizedLinear struct {
	XParams, WParams *quant.Params
	XRegs, WRegs     qub.Registers
}

// NewQuantizedLinear calibrates QUB metadata for the operand parameter
// sets.
func NewQuantizedLinear(xp, wp *quant.Params) (*QuantizedLinear, error) {
	rx, err := qub.RegistersFor(xp)
	if err != nil {
		return nil, fmt.Errorf("accel: activation registers: %w", err)
	}
	rw, err := qub.RegistersFor(wp)
	if err != nil {
		return nil, fmt.Errorf("accel: weight registers: %w", err)
	}
	return &QuantizedLinear{XParams: xp, WParams: wp, XRegs: rx, WRegs: rw}, nil
}

// AccUnit returns the real value of one accumulator unit: Δx·Δw.
//
//quq:float-ok product of two power-of-two base deltas is exact and feeds QU configuration, not the datapath
func (l *QuantizedLinear) AccUnit() float64 {
	return l.XRegs.BaseDelta * l.WRegs.BaseDelta
}

// Run encodes the float operands, executes the integer GEMM, and returns
// the result decoded back to floats (for cross-checking) along with the
// raw result.
func (l *QuantizedLinear) Run(c ArrayConfig, x, w *tensor.Tensor, qu *QuantizeUnit) (*tensor.Tensor, *GEMMResult, error) {
	m, k := x.Dim(0), x.Dim(1)
	k2, n := w.Dim(0), w.Dim(1)
	if k != k2 {
		return nil, nil, fmt.Errorf("accel: shape mismatch %v @ %v", x.Shape(), w.Shape())
	}
	xe := qub.EncodeTensor(l.XParams, x.Data())
	we := qub.EncodeTensor(l.WParams, w.Data())
	res, err := c.GEMM(xe, l.XRegs, we, l.WRegs, m, k, n, qu)
	if err != nil {
		return nil, nil, err
	}
	out := tensor.New(m, n)
	unit := l.AccUnit()
	if qu != nil {
		r, err := qub.RegistersFor(qu.Params)
		if err != nil {
			return nil, nil, err
		}
		for i, wd := range res.Out {
			out.Data()[i] = qub.Decode(wd, r).Value(r.BaseDelta)
		}
	} else {
		for i, acc := range res.Acc {
			//quq:float-ok decode boundary: converting raw accumulators back to real values for the float cross-check, outside the integer pipeline
			out.Data()[i] = float64(acc) * unit
		}
	}
	return out, res, nil
}
