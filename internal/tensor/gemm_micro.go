package tensor

// microKernel is the 4×8 register-tile contract the driver (gemmRange)
// calls: 32 dot products of four A rows against a shared k×8 packed B
// panel, written straight into the caller's tile,
//
//	d[r*ldd+j] = Σ_kk a_r[kk]·bp[kk*8+j]            (bias == nil)
//	d[r*ldd+j] = fl(Σ_kk a_r[kk]·bp[kk*8+j] + bias[j])  (bias != nil)
//
// for r in 0..3 and j in 0..7, every sum the serial ascending-k
// reduction. Nothing outside the four 8-element row windows is written,
// k = 0 stores zeros (plus the bias), and with bias nil no add is
// issued at all. There are three implementations: the generic portable
// loop below, serving both element types, and on amd64 an AVX float64
// kernel and an AVX2 int64 kernel for int32-range operands
// (gemm_micro_amd64.go).
type microKernel[T elem] func(d []T, ldd int, bias, a0, a1, a2, a3, bp []T, k int)

// micro4x8 is the float64 micro-kernel the float entry points pass to
// the driver. It is a variable so amd64 can swap in the AVX
// implementation at init when the CPU supports it; both implementations
// perform the identical sequence of IEEE-754 multiplies and adds per
// output element (the vector kernel computes four column lanes of one
// row with one VMULPD+VADDPD pair — lane-wise these are the same two
// roundings as the scalar `c += av*b`, and no FMA contraction is ever
// used), so swapping kernels can never change a result bit.
var micro4x8 microKernel[float64] = micro4x8Go[float64]

// intMicro4x8Narrow, when non-nil, is a faster int64 micro-kernel that
// is only correct when every operand value fits in int32 (on amd64/AVX2,
// one signed VPMULDQ per product). The portable build leaves it nil.
// Narrowness covers the whole integer datapath: pre-shifted QUB values
// are bounded by MaxMag << MaxShift = 2^15 << 7 ≪ 2^31.
var intMicro4x8Narrow microKernel[int64]

// pickIntMicro selects the int64 micro-kernel for one GEMM call: the
// narrow kernel when it exists and every element of both operands fits
// in int32, the portable kernel otherwise. The O(mk + kn) scan is
// negligible against the O(mkn) multiply and keeps the bit-exactness
// contract unconditional — values QUB cannot encode simply take the
// portable kernel, which is exact modulo 2^64 for any int64.
func pickIntMicro(a, b []int64) microKernel[int64] {
	if intMicro4x8Narrow != nil && int64sNarrow(a) && int64sNarrow(b) {
		return intMicro4x8Narrow
	}
	return micro4x8Go[int64]
}

// int64sNarrow reports whether every value fits in int32.
func int64sNarrow(s []int64) bool {
	for _, v := range s {
		if v != int64(int32(v)) {
			return false
		}
	}
	return true
}

// micro4x8Go is the portable micro-kernel for both element types (for
// int64, modulo 2^64). It runs the tile as two 4×4 column halves so its
// 16 accumulators fit the register file of either target; each element
// is still one accumulator fed its terms in ascending k.
func micro4x8Go[T elem](d []T, ldd int, bias, a0, a1, a2, a3, bp []T, k int) {
	d0 := d[0*ldd : 0*ldd+nrTile]
	d1 := d[1*ldd : 1*ldd+nrTile]
	d2 := d[2*ldd : 2*ldd+nrTile]
	d3 := d[3*ldd : 3*ldd+nrTile]
	for h := 0; h < nrTile; h += 4 {
		var c00, c01, c02, c03 T
		var c10, c11, c12, c13 T
		var c20, c21, c22, c23 T
		var c30, c31, c32, c33 T
		for kk := 0; kk < k; kk++ {
			bq := bp[kk*nrTile+h : kk*nrTile+h+4]
			b0, b1, b2, b3 := bq[0], bq[1], bq[2], bq[3]
			av := a0[kk]
			c00 += av * b0
			c01 += av * b1
			c02 += av * b2
			c03 += av * b3
			av = a1[kk]
			c10 += av * b0
			c11 += av * b1
			c12 += av * b2
			c13 += av * b3
			av = a2[kk]
			c20 += av * b0
			c21 += av * b1
			c22 += av * b2
			c23 += av * b3
			av = a3[kk]
			c30 += av * b0
			c31 += av * b1
			c32 += av * b2
			c33 += av * b3
		}
		if bias != nil {
			bq := bias[h : h+4]
			b0, b1, b2, b3 := bq[0], bq[1], bq[2], bq[3]
			c00, c01, c02, c03 = c00+b0, c01+b1, c02+b2, c03+b3
			c10, c11, c12, c13 = c10+b0, c11+b1, c12+b2, c13+b3
			c20, c21, c22, c23 = c20+b0, c21+b1, c22+b2, c23+b3
			c30, c31, c32, c33 = c30+b0, c31+b1, c32+b2, c33+b3
		}
		d0[h], d0[h+1], d0[h+2], d0[h+3] = c00, c01, c02, c03
		d1[h], d1[h+1], d1[h+2], d1[h+3] = c10, c11, c12, c13
		d2[h], d2[h+1], d2[h+2], d2[h+3] = c20, c21, c22, c23
		d3[h], d3[h+1], d3[h+2], d3[h+3] = c30, c31, c32, c33
	}
}
