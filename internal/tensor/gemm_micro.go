package tensor

// microKernel is the 4×4 register-tile contract the driver (gemmRange)
// calls: 16 dot products of four A rows against a shared k×4 packed B
// panel, c[r*4+j] = Σ_kk a_r[kk]·bp[kk*4+j], every accumulator seeing
// its terms in ascending-k order. There are three implementations: the
// generic portable loop below, serving both element types, and on amd64
// an AVX float64 kernel and an AVX2 int64 kernel for int32-range
// operands (gemm_micro_amd64.go).
type microKernel[T elem] func(c *[16]T, a0, a1, a2, a3, bp []T, k int)

// micro4x4 is the float64 micro-kernel the float entry points pass to
// the driver. It is a variable so amd64 can swap in the AVX
// implementation at init when the CPU supports it; both implementations
// perform the identical sequence of IEEE-754 multiplies and adds per
// output element (the vector kernel computes the four column lanes of
// one row with one VMULPD+VADDPD pair — lane-wise these are the same two
// roundings as the scalar `c += av*b`, and no FMA contraction is ever
// used), so swapping kernels can never change a result bit.
var micro4x4 microKernel[float64] = micro4x4Go[float64]

// intMicro4x4Narrow, when non-nil, is a faster int64 micro-kernel that
// is only correct when every operand value fits in int32 (on amd64/AVX2,
// one signed VPMULDQ per product). The portable build leaves it nil.
// Narrowness covers the whole integer datapath: pre-shifted QUB values
// are bounded by MaxMag << MaxShift = 2^15 << 7 ≪ 2^31.
var intMicro4x4Narrow microKernel[int64]

// pickIntMicro selects the int64 micro-kernel for one GEMM call: the
// narrow kernel when it exists and every element of both operands fits
// in int32, the portable kernel otherwise. The O(mk + kn) scan is
// negligible against the O(mkn) multiply and keeps the bit-exactness
// contract unconditional — values QUB cannot encode simply take the
// portable kernel, which is exact modulo 2^64 for any int64.
func pickIntMicro(a, b []int64) microKernel[int64] {
	if intMicro4x4Narrow != nil && int64sNarrow(a) && int64sNarrow(b) {
		return intMicro4x4Narrow
	}
	return micro4x4Go[int64]
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

// micro4x4Go is the portable micro-kernel for both element types:
// c[r*4+j] = Σ_kk a_r[kk]·bp[kk*4+j] (for int64, modulo 2^64).
func micro4x4Go[T elem](c *[16]T, a0, a1, a2, a3, bp []T, k int) {
	var c00, c01, c02, c03 T
	var c10, c11, c12, c13 T
	var c20, c21, c22, c23 T
	var c30, c31, c32, c33 T
	for kk := 0; kk < k; kk++ {
		bq := bp[kk*4 : kk*4+4]
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
	c[0], c[1], c[2], c[3] = c00, c01, c02, c03
	c[4], c[5], c[6], c[7] = c10, c11, c12, c13
	c[8], c[9], c[10], c[11] = c20, c21, c22, c23
	c[12], c[13], c[14], c[15] = c30, c31, c32, c33
}
