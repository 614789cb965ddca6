// Package qub implements the paper's quadruplet uniform byte (QUB)
// encoding: the hardware-facing representation of QUQ codes (§4.1).
//
// A b-bit QUB word stores, in its top bit, whether the value fell in a
// fine or coarse subrange; the remaining b−1 bits hold either a signed
// two's-complement code (when the space serves both signs) or an unsigned
// code (when the two subranges of a space were merged to one side of
// zero). Two per-tensor FC registers record, for the fine and the coarse
// space respectively, the merge status and the log2 ratios s of each
// subrange's scale factor to the shared base Δ.
//
// Decoding (Eq. (6)) turns a word into a signed integer D that fits in b
// bits plus a shift count n_sh, so that the represented value is
// (D << n_sh)·Δ — which is why a plain signed b-bit multiplier plus a
// small shifter suffices for any QUQ mode (Eq. (5)).
//
// One deliberate deviation from pure QUQ semantics: a merged *negative*
// space encodes magnitudes 1..2^(b−1) via the paper's sign-extension rule
// ({1, E_{b−2..0}} is a negative two's-complement number), so an exact
// zero in a non-positive tensor is not representable there and encodes as
// −Δ (one fine LSB). The fake-quantization path keeps exact zeros; the
// bit-exact path matches the hardware.
package qub

import (
	"fmt"
	"quq/internal/check"

	"quq/internal/quant"
)

// MaxShift is the largest subrange shift the FC register format can
// express: the paper allocates 3 bits per shift field.
const MaxShift = 7

// Word is an encoded QUB. Bit-widths up to 16 are supported; the paper
// evaluates 4, 6 and 8.
type Word uint16

// SpaceReg describes one encoding space (fine or coarse) of a tensor: the
// unpacked form of one FC register.
type SpaceReg struct {
	// Used reports whether any code words reference this space. An
	// unused space decodes nothing (e.g. the coarse space of a tensor
	// whose Mode B fallback needed only the fine space).
	Used bool
	// Both reports whether the space serves both signs (bit 7 of the
	// paper's register): its codes are then signed two's complement.
	Both bool
	// NegSide, meaningful when !Both, reports that the single occupied
	// side is negative (bit 6).
	NegSide bool
	// ShNeg and ShPos are log2 of the negative/positive subrange's scale
	// ratio to the base Δ (bits 5–3 and 2–0).
	ShNeg, ShPos uint8
}

// Pack serializes the register into the paper's 8-bit layout. It fails if
// a shift exceeds the 3-bit field.
func (s SpaceReg) Pack() (uint8, error) {
	if s.ShNeg > MaxShift || s.ShPos > MaxShift {
		return 0, fmt.Errorf("qub: shift (%d,%d) exceeds the 3-bit register field", s.ShNeg, s.ShPos)
	}
	var b uint8
	if s.Both {
		b |= 1 << 7
	}
	if s.NegSide {
		b |= 1 << 6
	}
	b |= (s.ShNeg & 7) << 3
	b |= s.ShPos & 7
	return b, nil
}

// Registers is the per-tensor QUB metadata: the two FC registers plus the
// shared base scale factor and the bit-width.
type Registers struct {
	Bits      int
	BaseDelta float64
	F, C      SpaceReg
}

// RegistersFor derives the QUB registers from a calibrated QUQ parameter
// set. It fails if the parameters cannot be represented — a subrange
// shift beyond MaxShift, or slot code counts inconsistent with the word
// layout.
func RegistersFor(p *quant.Params) (Registers, error) {
	if err := p.Validate(); err != nil {
		return Registers{}, err
	}
	r := Registers{Bits: p.Bits, BaseDelta: p.BaseDelta()}
	var err error
	if r.F, err = spaceFor(p, quant.FNeg, quant.FPos); err != nil {
		return Registers{}, err
	}
	if r.C, err = spaceFor(p, quant.CNeg, quant.CPos); err != nil {
		return Registers{}, err
	}
	if !r.F.Used && !r.C.Used {
		return Registers{}, fmt.Errorf("qub: no enabled subranges")
	}
	return r, nil
}

func spaceFor(p *quant.Params, neg, pos quant.Slot) (SpaceReg, error) {
	sn, sp := p.Slot(neg), p.Slot(pos)
	var r SpaceReg
	switch {
	case !sn.Enabled && !sp.Enabled:
		return SpaceReg{}, nil
	case sn.Enabled && sp.Enabled:
		r = SpaceReg{Used: true, Both: true}
	case sn.Enabled:
		r = SpaceReg{Used: true, NegSide: true}
	default:
		r = SpaceReg{Used: true}
	}
	quarterNeg := int64(1) << (p.Bits - 2)
	halfNeg := int64(1) << (p.Bits - 1)
	if sn.Enabled {
		sh := p.Shift(neg)
		if sh > MaxShift {
			return SpaceReg{}, fmt.Errorf("qub: %v shift %d exceeds register range", neg, sh)
		}
		r.ShNeg = uint8(sh)
		limit := halfNeg
		if r.Both {
			limit = quarterNeg
		}
		if sn.MaxMag > limit {
			return SpaceReg{}, fmt.Errorf("qub: %v MaxMag %d exceeds layout limit %d", neg, sn.MaxMag, limit)
		}
	}
	if sp.Enabled {
		sh := p.Shift(pos)
		if sh > MaxShift {
			return SpaceReg{}, fmt.Errorf("qub: %v shift %d exceeds register range", pos, sh)
		}
		r.ShPos = uint8(sh)
		limit := halfNeg - 1
		if r.Both {
			limit = quarterNeg - 1
		}
		if sp.MaxMag > limit {
			return SpaceReg{}, fmt.Errorf("qub: %v MaxMag %d exceeds layout limit %d", pos, sp.MaxMag, limit)
		}
	}
	return r, nil
}

// Encode converts a quantization code into a QUB word under the given
// parameter set. The code must come from the same parameters.
func Encode(p *quant.Params, c quant.Code) Word {
	bits := p.Bits
	fineBit := Word(1) << (bits - 1)
	restMask := Word(1)<<(bits-1) - 1
	half := int64(1) << (bits - 1)

	var w Word
	if c.Slot.Fine() {
		w = fineBit
	}
	var both bool
	if c.Slot.Fine() {
		both = p.Slot(quant.FNeg).Enabled && p.Slot(quant.FPos).Enabled
	} else {
		both = p.Slot(quant.CNeg).Enabled && p.Slot(quant.CPos).Enabled
	}
	mag := c.Mag
	switch {
	case both && c.Slot.Negative():
		// Signed two's complement in b−1 bits: −mag.
		w |= Word(-mag) & restMask
	case both:
		w |= Word(mag) & restMask
	case c.Slot.Negative():
		// Merged negative space: {1, rest} is a (b)-bit negative
		// two's-complement value, so rest = 2^(b−1) − mag. An exact zero
		// is unrepresentable here and becomes −Δ (see package comment).
		if mag == 0 {
			mag = 1
		}
		w |= Word(half-mag) & restMask
	default:
		// Merged positive space: plain unsigned magnitude.
		w |= Word(mag) & restMask
	}
	return w
}

// Decoded is the output of the decoding unit: a signed integer that fits
// in the quantizer's bit-width and the number of bits to shift it left.
// The represented real value is float64(D<<Nsh)·Δ_base.
type Decoded struct {
	D   int32
	Nsh uint8
}

// Value returns the real value the decoded pair represents under base
// scale delta.
//
//quq:float-ok decode boundary: multiplying the integer (D, n_sh) pair by the base Δ is where values exit the integer pipeline
func (d Decoded) Value(delta float64) float64 {
	return float64(int64(d.D)<<d.Nsh) * delta
}

// Decode implements Eq. (6): split the word on its fine/coarse bit,
// interpret the remaining b−1 bits as signed or unsigned according to the
// space's register, and select the shift count by the subrange's sign.
func Decode(w Word, r Registers) Decoded {
	bits := r.Bits
	top := (w >> (bits - 1)) & 1
	rest := int64(w) & (int64(1)<<(bits-1) - 1)

	reg := r.C
	if top == 1 {
		reg = r.F
	}
	if reg.Both {
		// Sign-extend the (b−1)-bit two's-complement code.
		signBit := int64(1) << (bits - 2)
		v := rest
		if v&signBit != 0 {
			v -= int64(1) << (bits - 1)
		}
		nsh := reg.ShPos
		if v < 0 {
			nsh = reg.ShNeg
		}
		return Decoded{D: int32(v), Nsh: nsh}
	}
	if reg.NegSide {
		// {1, rest} as a b-bit two's-complement value: rest − 2^(b−1).
		return Decoded{D: int32(rest - int64(1)<<(bits-1)), Nsh: reg.ShNeg}
	}
	return Decoded{D: int32(rest), Nsh: reg.ShPos}
}

// EncodeValue quantizes x with p and returns its QUB word.
func EncodeValue(p *quant.Params, x float64) Word {
	return Encode(p, p.Quantize(x))
}

// EncodeTensor encodes every element of xs.
func EncodeTensor(p *quant.Params, xs []float64) []Word {
	out := make([]Word, len(xs))
	for i, x := range xs {
		out[i] = EncodeValue(p, x)
	}
	return out
}

// DecodeTensor decodes ws into real values under the registers.
func DecodeTensor(ws []Word, r Registers) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = Decode(w, r).Value(r.BaseDelta)
	}
	return out
}

// Dot computes the Eq. (5) integer dot product of two encoded vectors:
// Σ (Dx·Dw) << (nsh_x + nsh_w), exactly as the PE array accumulates it.
// The real dot product is the returned integer times Δx·Δw. It panics if
// the vectors' lengths differ.
func Dot(xs, ws []Word, rx, rw Registers) int64 {
	if len(xs) != len(ws) {
		panic(check.Invariant("qub: Dot length mismatch"))
	}
	var acc int64
	for i := range xs {
		dx := Decode(xs[i], rx)
		dw := Decode(ws[i], rw)
		acc += (int64(dx.D) * int64(dw.D)) << (dx.Nsh + dw.Nsh)
	}
	return acc
}
