package serve

import (
	"math"
	"math/big"
	"math/bits"
)

// A JSON number of at most 19 digits is converted here, not by
// strconv.ParseFloat. For such a number ParseFloat reads the digits
// into a uint64 m and a decimal exponent k, then converts m·10^k exactly
// (m < 2^52, |k| ≤ 22) or by the Eisel-Lemire algorithm, and only when
// that cannot decide the rounding takes its slow path. Most of its time
// goes to the generic reader (underscores, hex, inf/nan, case folding).
// The scanner has already read m and k, so decimal.float runs
// Eisel-Lemire on them directly and reports when it cannot decide; the
// caller then calls ParseFloat. Both give the correctly rounded float64,
// which is unique, so the bits are the same.

// decimal is a scanned JSON number: m·10^k, negated when neg. trunc
// means it had more than 19 digits, so m does not hold them all.
type decimal struct {
	m     uint64
	k     int
	neg   bool
	trunc bool
}

// The exponents pow10Mant covers: 17-digit decimals of magnitude
// 1e-30 to 1e45 — pixel values are near 1 — and anything else goes to
// ParseFloat.
const (
	minPow10 = -48
	maxPow10 = 28
)

// pow10Mant[k-minPow10] is 10^k as a 128-bit mantissa rounded down,
// {low, high}: floor(10^k·2^s) for the s that puts it in [2^127, 2^128),
// as Eisel-Lemire needs it.
var pow10Mant = func() (t [maxPow10 - minPow10 + 1][2]uint64) {
	ten := big.NewInt(10)
	for k := minPow10; k <= maxPow10; k++ {
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(k, -k))), nil)
		m := new(big.Int)
		switch {
		case k < 0:
			m.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			m.Quo(m, p)
		case p.BitLen() <= 128:
			m.Lsh(p, uint(128-p.BitLen()))
		default:
			m.Rsh(p, uint(p.BitLen()-128))
		}
		hi := new(big.Int).Rsh(m, 64)
		t[k-minPow10] = [2]uint64{m.Uint64(), hi.Uint64()}
	}
	return t
}()

// float returns the float64 nearest d, or ok false when d lies outside
// what this conversion decides: more than 19 digits, an exponent outside
// pow10Mant, a result that is subnormal or overflows, or a product too
// close to a rounding boundary. It is the Eisel-Lemire algorithm as
// strconv implements it (eisel_lemire.go), over the table above.
func (d decimal) float() (f float64, ok bool) {
	if d.trunc {
		return 0, false
	}
	if d.m == 0 {
		if d.neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if d.k < minPow10 || d.k > maxPow10 {
		return 0, false
	}
	// Normalize m, and estimate the binary exponent: 217706/2^16 is
	// log2(10) to within the precision the exponent range needs.
	clz := bits.LeadingZeros64(d.m)
	m := d.m << uint(clz)
	exp2 := uint64(217706*d.k>>16+64+1023) - uint64(clz)
	pow := pow10Mant[d.k-minPow10]
	hi, lo := bits.Mul64(m, pow[1])
	// The low half of pow matters only when the high product's low 9
	// bits are all ones and its low word may carry.
	if hi&0x1FF == 0x1FF && lo+m < m {
		yHi, yLo := bits.Mul64(m, pow[0])
		mergedHi, mergedLo := hi, lo+yHi
		if mergedLo < lo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+m < m {
			return 0, false
		}
		hi, lo = mergedHi, mergedLo
	}
	// Keep 54 bits, then round half to even down to 53.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // exactly halfway: the truncated table cannot tell
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		return 0, false // subnormal, zero, or past the largest float64
	}
	b := exp2<<52 | mant&(1<<52-1)
	if d.neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
