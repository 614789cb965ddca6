package tensor

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"quq/internal/check"
)

// This file is the kernel layer: one cache-blocked, register-tiled GEMM
// driver, generic over the element type (float64 for the forward pass,
// int64 for the pre-shifted QUB datapath), with destination-passing
// entry points and optional row-partitioned intra-op parallelism. The
// two element types share the loop nest, the pack-panel pool, the
// validator and the worker pool; they differ only in the 4×8
// micro-kernel the entry point passes in (gemm_micro.go), which also
// owns the tile's epilogue: it adds the bias and stores its 32 results
// into dst itself. Every kernel obeys one determinism contract:
//
//	each output element is the serial reduction
//	    out[i][j] = fl(... fl(fl(a[i][0]·b[0][j]) + a[i][1]·b[1][j]) ...)
//	with the inner index ascending,
//
// which is exactly what the original scalar loops computed. Register
// tiling reuses operand loads across a 4×8 tile of outputs but keeps one
// accumulator per element, cache blocking only reorders *which* elements
// are in flight, and parallelism partitions output rows across workers —
// none of the three changes any element's reduction order, so blocked,
// tiled and parallel results are bit-identical to the reference kernels
// for finite inputs. (The reference MatMul skips a[i][kk]==0 terms; a
// skipped term contributes ±0 to a running sum that is never −0, which
// cannot change the accumulator's bit pattern. Only non-finite operands,
// where 0·±Inf is NaN, can tell the kernels apart; no model tensor
// contains them.) For int64 the contract holds trivially: addition wraps
// modulo 2^64 and is associative and commutative, so any summation order
// produces the same bits. The equivalence and fuzz tests in gemm_test.go
// assert bit-identity against the Ref oracles over randomized shapes,
// for both element types.

const (
	// mrTile×nrTile is the register micro-tile: 32 accumulators (eight
	// ymm registers of four lanes on amd64) live in registers while each
	// inner-loop iteration issues 6 loads — one 64-byte packed B row and
	// four A broadcasts — and 32 multiply-adds, versus 2 loads per
	// multiply-add in the scalar loops.
	mrTile = 4
	nrTile = 8
	// parallelMinMACs is the size cutover for intra-op parallelism:
	// below this many multiply-accumulates the fork/join overhead
	// outweighs the work and the kernel stays on the cheap serial path.
	// Proxy-scale forward shapes (ViT-Nano attention is 17×16×17) never
	// cross it; calibration sweeps and large batched GEMMs do.
	parallelMinMACs = 1 << 18
	// minRowsPerWorker bounds the split granularity so a worker always
	// has enough rows to amortize its goroutine.
	minRowsPerWorker = 16
)

// intraOpExtra is the process-wide pool of *extra* GEMM workers: a kernel
// always runs on its calling goroutine and may additionally borrow up to
// budget−1 helpers from this pool. Because the pool is global, batch-level
// fan-out (ptq.ForwardBatch, the quq-serve batcher) and intra-op fan-out
// draw from one budget and can never multiply into oversubscription.
var intraOpExtra atomic.Int32

// WorkerGrant is a per-call contribution of extra intra-op workers: the
// tokens it adds live in the shared pool for the grant's lifetime, so a
// caller that knows it is the only hot batch (the occupancy-adaptive
// scheduler at low load) can let its GEMMs borrow helpers. Release is
// idempotent and must be called when the batch completes; outstanding
// borrows are accounted for (the pool balance may swing negative until
// borrowed workers return, which only pauses new borrows).
type WorkerGrant struct {
	n        int32
	released atomic.Bool
}

// GrantWorkers adds n extra workers to the intra-op pool for the
// lifetime of the returned grant. n <= 0 returns an empty grant.
// Bit-identity is unaffected: worker counts never change results, only
// timing.
func GrantWorkers(n int) *WorkerGrant {
	g := &WorkerGrant{}
	if n > 0 {
		g.n = int32(n)
		intraOpExtra.Add(g.n)
	}
	return g
}

// Release returns the grant's workers to nowhere — it withdraws the
// extra capacity. Safe to call more than once; only the first call
// takes effect.
func (g *WorkerGrant) Release() {
	if g == nil || g.n == 0 {
		return
	}
	if !g.released.CompareAndSwap(false, true) {
		return
	}
	intraOpExtra.Add(-g.n)
}

// acquireExtra takes up to max extra workers from the pool.
func acquireExtra(max int) int {
	for {
		cur := intraOpExtra.Load()
		if cur <= 0 || max <= 0 {
			return 0
		}
		take := int32(max)
		if take > cur {
			take = cur
		}
		if intraOpExtra.CompareAndSwap(cur, cur-take) {
			return int(take)
		}
	}
}

func releaseExtra(n int) {
	if n > 0 {
		intraOpExtra.Add(int32(n))
	}
}

// elem is the kernel layer's element constraint: the float64 forward
// and the int64 QUB datapath run the same driver.
type elem interface{ ~float64 | ~int64 }

// gemmDims validates a (m×k) @ b (k×n) — or, with bT set, a (m×k) @ bᵀ
// with b (n×k) — and returns the dimensions.
func gemmDims(a, b *Tensor, bT bool, op string) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(check.Invariantf("tensor: %s requires rank-2 tensors", op))
	}
	m, k = a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	rhs := ""
	if bT {
		k2, n, rhs = n, k2, "ᵀ"
	}
	if k != k2 {
		panic(check.Invariantf("tensor: %s inner dimension mismatch %v @ %v%s", op, a.shape, b.shape, rhs))
	}
	return m, k, n
}

// checkGEMM is the one operand/destination validator behind every entry
// point and oracle: an m·k-element lhs, a k·n-element rhs (k×n, or n×k
// for a @ bᵀ — the same extent) and an m·n-element destination whose
// extent overlaps neither operand's. The kernels stream operand rows
// while writing dst, so any shared element — not only a shared first
// one — would let a store clobber a value still to be read.
func checkGEMM[T elem](dst, a, b []T, m, k, n int, op string) {
	if m < 0 || k < 0 || n < 0 {
		panic(check.Invariantf("tensor: %s negative dimensions %dx%dx%d", op, m, k, n))
	}
	if len(a) < m*k {
		panic(check.Invariantf("tensor: %s lhs length %d, want >= %d", op, len(a), m*k))
	}
	if len(b) < k*n {
		panic(check.Invariantf("tensor: %s rhs length %d, want >= %d", op, len(b), k*n))
	}
	if len(dst) < m*n {
		panic(check.Invariantf("tensor: %s destination length %d, want >= %d", op, len(dst), m*n))
	}
	if overlaps(dst[:m*n], a[:m*k]) || overlaps(dst[:m*n], b[:k*n]) {
		panic(check.Invariantf("tensor: %s destination overlaps an operand", op))
	}
}

// overlaps reports whether two slices share any element. The addresses
// are only compared, never converted back to pointers.
func overlaps[T elem](x, y []T) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	size := unsafe.Sizeof(x[0])
	x0, y0 := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&y[0]))
	return x0 < y0+uintptr(len(y))*size && y0 < x0+uintptr(len(x))*size
}

// floatGEMM is the *Tensor front of the driver: shape validation, then
// the shared validator and loop nest over the tensors' flat storage
// with the float64 micro-kernel init selected.
//
//quq:hotpath steady-state GEMM kernel; destinations come from the caller (arena or reused buffer), never fresh allocations
func floatGEMM(dst, a, b *Tensor, bias []float64, bT bool, op string) *Tensor {
	m, k, n := gemmDims(a, b, bT, op)
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(check.Invariantf("tensor: %s destination shape %v, want [%d %d]", op, dst.shape, m, n))
	}
	checkGEMM(dst.data, a.data, b.data, m, k, n, op)
	gemm(dst.data, a.data, b.data, bias, m, k, n, bT, micro4x8, &floatPanels)
	return dst
}

// MatMulInto computes dst = a @ b for rank-2 tensors (m×k) @ (k×n) ->
// (m×n), writing into caller-provided storage (dst need not be zeroed;
// every element is stored). dst must not overlap a or b. Bit-identical
// to MatMulRef for finite inputs; see the determinism contract above.
//
//quq:hotpath steady-state GEMM kernel; destinations come from the caller (arena or reused buffer), never fresh allocations
func MatMulInto(dst, a, b *Tensor) *Tensor {
	return floatGEMM(dst, a, b, nil, false, "MatMulInto")
}

// MatMulBiasInto computes dst = a @ b + bias, the bias-fused linear-layer
// epilogue: bias (length n) is added row-wise after each element's
// reduction completes, which is exactly MatMul followed by AddRowVector —
// same operations, same order, one less pass over dst.
//
//quq:hotpath steady-state GEMM kernel; destinations come from the caller (arena or reused buffer), never fresh allocations
func MatMulBiasInto(dst, a, b *Tensor, bias []float64) *Tensor {
	if _, _, n := gemmDims(a, b, false, "MatMulBiasInto"); len(bias) != n {
		panic(check.Invariantf("tensor: MatMulBiasInto bias length %d, want %d", len(bias), n))
	}
	return floatGEMM(dst, a, b, bias, false, "MatMulBiasInto")
}

// MatMulTInto computes dst = a @ bᵀ for rank-2 tensors (m×k) @ (n×k)ᵀ ->
// (m×n) into caller-provided storage. Attention scores (Q @ Kᵀ) use this
// form: both operands stream row-major and no transpose is ever
// materialized. dst must not overlap a or b.
//
//quq:hotpath steady-state GEMM kernel; destinations come from the caller (arena or reused buffer), never fresh allocations
func MatMulTInto(dst, a, b *Tensor) *Tensor {
	return floatGEMM(dst, a, b, nil, true, "MatMulTInto")
}

// IntMatMulInto computes dst = a @ b for flat row-major int64 matrices
// (m×k) @ (k×n) -> (m×n), writing into caller-provided storage (dst need
// not be zeroed; every element is stored). It takes flat slices rather
// than *Tensor because its callers are the integer datapath
// (internal/accel, ptq.IntEngine), which holds pre-shifted QUB integers,
// not float tensors. dst must not overlap a or b. Accumulation is int64
// wrapping modulo 2^64, so results are bit-exact regardless of
// micro-kernel, tiling, or worker count; overflow bounds are the
// caller's contract (accel checks them at prepare time).
//
//quq:hotpath steady-state integer GEMM kernel; destinations come from the caller (arena or resident buffer), never fresh allocations
func IntMatMulInto(dst, a, b []int64, m, k, n int) {
	checkGEMM(dst, a, b, m, k, n, "IntMatMulInto")
	gemm(dst, a, b, nil, m, k, n, false, pickIntMicro(a[:m*k], b[:k*n]), &intPanels)
}

// AddInto computes dst = a + b elementwise. dst may alias a or b.
func AddInto(dst, a, b *Tensor) *Tensor {
	a.assertSameShape(b, "AddInto")
	dst.assertSameShape(a, "AddInto")
	dd, ad, bd := dst.data, a.data, b.data
	for i, av := range ad {
		dd[i] = av + bd[i]
	}
	return dst
}

// gemm runs the loop nest over validated operands: serially on the
// caller below the size cutover, otherwise row-partitioned across the
// intra-op workers planExtra grants. The serial call stays out of the
// parallel closure so the serial path allocates nothing.
//
//quq:hotpath steady-state GEMM driver shared by every entry point; scratch is the pooled pack panel
func gemm[T elem](dst, a, b, bias []T, m, k, n int, bT bool, micro microKernel[T], panels *panelPool[T]) {
	if extra := planExtra(m, k, n); extra > 0 {
		runRows(extra, m, func(i0, i1 int) { gemmRange(dst, a, b, bias, k, n, i0, i1, bT, micro, panels) })
	} else {
		gemmRange(dst, a, b, bias, k, n, 0, m, bT, micro, panels)
	}
}

// planExtra decides how many extra workers a m×k×n GEMM should use and
// acquires them from the intra-op pool (the caller must releaseExtra the
// same count). It returns 0 — keep the cheap serial path — below the
// size cutover, when the split would leave workers underfed, or when the
// pool is drained. Callers keep the serial kernel call out of the
// parallel closure so the serial path allocates nothing.
func planExtra(m, k, n int) int {
	if m*k*n < parallelMinMACs || m < 2*minRowsPerWorker {
		return 0
	}
	want := m / minRowsPerWorker
	if want < 2 {
		return 0
	}
	return acquireExtra(want - 1)
}

// runRows splits rows [0, m) into extra+1 contiguous chunks: the extra
// workers take the tail chunks while the caller computes the first, then
// releases the workers. Row partitioning cannot perturb results: each
// output element is produced by one worker running the identical serial
// reduction, so parallel output is bit-identical to serial output.
func runRows(extra, m int, run func(i0, i1 int)) {
	w := extra + 1
	chunk := (m + w - 1) / w
	var wg sync.WaitGroup
	for t := 1; t < w; t++ {
		lo := t * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(lo, hi)
		}(lo, hi)
	}
	run(0, chunk) // the caller is worker 0
	wg.Wait()
	releaseExtra(extra)
}

// panelPool recycles the per-call B-panel pack buffers of one element
// type so steady-state kernels allocate nothing; each concurrent kernel
// invocation (including each intra-op worker) takes its own buffer.
type panelPool[T elem] struct{ pool sync.Pool }

var (
	floatPanels panelPool[float64]
	intPanels   panelPool[int64]
)

// tileLen is the element count of one mrTile×nrTile register tile.
const tileLen = mrTile * nrTile

// get returns a pooled n-element pack panel plus a tileLen-element
// scratch tile for the partial tiles, carved from one pooled buffer so
// the steady state allocates nothing.
func (pp *panelPool[T]) get(n int) (*[]T, []T, []T) {
	p, _ := pp.pool.Get().(*[]T)
	if p == nil {
		p = new([]T)
	}
	if cap(*p) < n+tileLen {
		*p = make([]T, n+tileLen)
	}
	buf := (*p)[:n+tileLen]
	return p, buf[:n:n], buf[n:]
}

func (pp *panelPool[T]) put(p *[]T) { pp.pool.Put(p) }

// gemmRange is the blocked, register-tiled loop nest over dst rows
// [i0, i1), for a @ b (b is k×n) or, with bT set, a @ bᵀ (b is n×k).
// Each group of nrTile output columns is packed into a contiguous k×8
// panel — one 64-byte row per k step, columns of b copied across its
// rows, or rows of b transposed; a pure copy either way, values
// unchanged — so the inner loop's b loads are sequential; the panel is
// then paired with mrTile rows of a in the 4×8 micro-kernel, whose 32
// accumulators each see their terms in ascending-k order. A full tile
// is written by the micro-kernel straight into dst, bias (optional,
// length n) added after each element's reduction completes.
//
// The tile tails go through the same micro-kernel into the scratch
// tile: the last n mod 8 columns are packed beside zero columns, the
// last m mod 4 rows are handed over with the final row repeated, and
// only the real elements are copied out (bias added on the way). A
// stored element is still one accumulator fed its own terms in
// ascending k, so a tail element carries the bits an interior one
// would.
//
//quq:hotpath the one blocked loop nest; scratch is the pooled pack panel
func gemmRange[T elem](dst, a, b, bias []T, k, n, i0, i1 int, bT bool, micro microKernel[T], panels *panelPool[T]) {
	if n == 0 || i0 >= i1 {
		return
	}
	pp, packed, tile := panels.get(nrTile * k)
	last := a[(i1-1)*k : (i1-1)*k+k]
	for j := 0; j < n; j += nrTile {
		nc := min(nrTile, n-j)
		pack(packed, b, k, n, j, nc, bT)
		// full is where the full 4×8 tiles of this panel end; a
		// column-tail panel has none.
		full := i0
		if nc == nrTile {
			full = i1 - (i1-i0)%mrTile
			var bj []T
			if bias != nil {
				bj = bias[j : j+nrTile]
			}
			for i := i0; i < full; i += mrTile {
				micro(dst[i*n+j:(i+mrTile-1)*n+j+nrTile], n, bj,
					a[(i+0)*k:(i+0)*k+k], a[(i+1)*k:(i+1)*k+k],
					a[(i+2)*k:(i+2)*k+k], a[(i+3)*k:(i+3)*k+k], packed, k)
			}
		}
		// The partial tiles. Rows past the last are the last again: read,
		// multiplied and dropped.
		for i := full; i < i1; i += mrTile {
			mr := min(mrTile, i1-i)
			rows := [mrTile][]T{last, last, last, last}
			for r := 0; r < mr; r++ {
				rows[r] = a[(i+r)*k : (i+r)*k+k]
			}
			micro(tile, nrTile, nil, rows[0], rows[1], rows[2], rows[3], packed, k)
			for r := 0; r < mr; r++ {
				drow := dst[(i+r)*n+j : (i+r)*n+j+nc]
				for c := range drow {
					v := tile[r*nrTile+c]
					if bias != nil {
						v += bias[j+c]
					}
					drow[c] = v
				}
			}
		}
	}
	panels.put(pp)
}

// pack copies the nc ≤ nrTile product columns starting at j (columns of
// b, or rows of b with bT set) into the k×8 panel, zero-filling columns
// nc..7 of a tail panel; gemmRange never stores their accumulators.
func pack[T elem](packed, b []T, k, n, j, nc int, bT bool) {
	switch {
	case bT:
		for c := 0; c < nc; c++ {
			for kk, v := range b[(j+c)*k : (j+c)*k+k] {
				packed[kk*nrTile+c] = v
			}
		}
	case nc == nrTile:
		// Spelled out: a copy call per 64-byte row costs more than the row.
		for kk := 0; kk < k; kk++ {
			p, q := packed[kk*nrTile:kk*nrTile+nrTile], b[kk*n+j:kk*n+j+nrTile]
			p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7] = q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
		}
	default:
		for kk := 0; kk < k; kk++ {
			copy(packed[kk*nrTile:kk*nrTile+nc], b[kk*n+j:kk*n+j+nc])
		}
	}
	if nc < nrTile {
		for kk := 0; kk < k; kk++ {
			clear(packed[kk*nrTile+nc : kk*nrTile+nrTile])
		}
	}
}

// MatMulRef returns a @ b computed by the pre-kernel-layer scalar loop
// (i-k-j order with the zero-skip). It is the bit-exact oracle the
// blocked float kernels are tested against; production code uses
// MatMul/MatMulInto.
func MatMulRef(a, b *Tensor) *Tensor {
	m, k, n := gemmDims(a, b, false, "MatMulRef")
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[kk*n : (kk+1)*n]
			for j := range brow {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatMulTRef returns a @ bᵀ computed by the pre-kernel-layer scalar loop
// (one register dot product per element); see MatMulRef.
func MatMulTRef(a, b *Tensor) *Tensor {
	m, k, n := gemmDims(a, b, true, "MatMulTRef")
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for j := range orow {
			brow := b.data[j*k : (j+1)*k]
			var s float64
			for kk := range arow {
				s += arow[kk] * brow[kk]
			}
			orow[j] = s
		}
	}
	return out
}

// IntMatMulRef computes dst = a @ b with the naive scalar loop (one dot
// product per element). It is the oracle the blocked integer kernels —
// and accel's GEMM — are tested against; production code uses
// IntMatMulInto.
func IntMatMulRef(dst, a, b []int64, m, k, n int) {
	checkGEMM(dst, a, b, m, k, n, "IntMatMulRef")
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		orow := dst[i*n : i*n+n]
		for j := range orow {
			var s int64
			boff := j
			for kk := 0; kk < k; kk++ {
				s += arow[kk] * b[boff]
				boff += n
			}
			orow[j] = s
		}
	}
}
