package mathx

import (
	"math"

	"quq/internal/check"
)

// The slice kernels below are what the forward's two special-function
// sites run. In the fully-quantized regime a b-bit quantizer sits directly
// in front of GELU and softmax, so a tensor of tens of thousands of
// elements holds at most 2^b distinct inputs (of v−max for softmax: a few
// hundred); the kernels call the scalar function once per distinct input
// and copy its result to every repeat. Nothing tells them a tensor is
// quantized — they watch their own miss rate and fall back to the plain
// scalar loop when memoizing does not pay.

const (
	// memoSlots is the table size: 32 KiB of stack. The ≤ 2^b distinct
	// inputs of a b-bit tensor keep hitting it up to b ≈ 9; wider
	// codomains miss their way onto the scalar loop.
	memoBits  = 11
	memoSlots = 1 << memoBits
	// memoWindow is how many elements the memo is given to prove itself:
	// a window in which more than half the lookups missed switches the
	// rest of the tensor to the scalar loop.
	memoWindow = 1024
	// memoMul is 2^64/φ, the Fibonacci-hashing multiplier: every bit of
	// the key reaches the product's top memoBits bits.
	memoMul = 0x9E3779B97F4A7C15
	// memoVacant marks slot 0 of a fresh table, see memo.reset.
	memoVacant = 1
)

// memoIndex is the one slot a key may occupy.
func memoIndex(key uint64) uint64 { return key * memoMul >> (64 - memoBits) }

// memo is a direct-mapped table from the bit pattern of an input to what
// the scalar function returned for exactly those bits, so a hit is
// bit-identical to a call by construction: ±0 are two keys, every NaN
// payload is its own key, and nothing is compared with ==. It lives in
// its kernel's stack frame, one per call.
type memo struct {
	slots [memoSlots]struct {
		key uint64
		val float64
	}
	// seen and misses count the current window's lookups; off is set
	// when a window closed with more than half of them missed.
	seen, misses int
	off          bool
}

// reset empties a zeroed table. Vacancy has no flag: a slot is vacant
// when its key hashes to another slot, which no lookup there can match.
// The zero key does that in every slot but its own, slot 0, which is
// given a key that lives elsewhere.
func (m *memo) reset() { m.slots[0].key = memoVacant }

// get returns f(x), calling f only when x's slot does not hold x's bits.
func (m *memo) get(x float64, f func(float64) float64) float64 {
	key := math.Float64bits(x)
	s := &m.slots[memoIndex(key)]
	if s.key != key {
		s.key, s.val = key, f(x)
		m.misses++
	}
	return s.val
}

// looked accounts for n lookups and closes the window once it is full.
func (m *memo) looked(n int) {
	if m.seen += n; m.seen >= memoWindow {
		m.off = 2*m.misses > m.seen
		m.seen, m.misses = 0, 0
	}
}

// GeluSlice replaces every element of xs with Gelu of it, bit for bit
// what the scalar loop stores.
//
//quq:hotpath per-forward SFU kernel; the memo is stack scratch, no allocations here
func GeluSlice(xs []float64) { geluSlice(xs, Gelu) }

// geluSlice is GeluSlice over the scalar gelu; tests count its calls.
//
//quq:hotpath per-forward SFU kernel; the memo is stack scratch, no allocations here
func geluSlice(xs []float64, gelu func(float64) float64) {
	var m memo
	m.reset()
	for !m.off && len(xs) > 0 {
		n := min(len(xs), memoWindow)
		for i, x := range xs[:n] {
			xs[i] = m.get(x, gelu)
		}
		m.looked(n)
		xs = xs[n:]
	}
	for i, x := range xs {
		xs[i] = gelu(x)
	}
}

// SoftmaxRows replaces each cols-wide row of xs with its softmax, bit for
// bit what SoftmaxInPlace stores: the same max scan, the same v−max, the
// same ascending sum and the same divide, with math.Exp memoized on the
// bits of v−max across all rows. (One thing neither function pins: a row
// in which two different non-finite inputs meet sums NaNs of different
// payloads, and which payload x+y keeps is the compiler's operand order.
// Such a row is NaN where the spec's is; every other row is equal in
// every bit.) The memo's window closes on a row boundary. The rows must
// tile xs.
//
//quq:hotpath per-forward SFU kernel; the memo is stack scratch, no allocations here
func SoftmaxRows(xs []float64, cols int) {
	if len(xs) == 0 {
		return
	}
	if cols <= 0 || len(xs)%cols != 0 {
		panic(check.Invariantf("mathx: rows of %d columns do not tile %d elements", cols, len(xs)))
	}
	var m memo
	m.reset()
	for ; !m.off && len(xs) > 0; xs = xs[cols:] {
		row := xs[:cols]
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for i, v := range row {
			e := m.get(v-mx, math.Exp)
			row[i] = e
			sum += e
		}
		for i := range row {
			row[i] /= sum
		}
		m.looked(cols)
	}
	for ; len(xs) > 0; xs = xs[cols:] {
		SoftmaxInPlace(xs[:cols])
	}
}
