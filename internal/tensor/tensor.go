// Package tensor implements the dense numerical arrays that every other
// package in this repository builds on: the vision-transformer inference
// stack, the quantizers, the PTQ pipeline and the accelerator simulator.
//
// Tensors are row-major float64 with an explicit shape. The package favours
// predictable, allocation-conscious code over generality: it supports the
// operations a transformer forward/backward pass needs (GEMM, transpose,
// broadcasting over the leading axis, reductions, quantiles) and nothing
// else. All operations are deterministic.
package tensor

import (
	"fmt"
	"math"
	"quq/internal/check"
	"sort"
)

// Tensor is a dense row-major float64 array. The zero value is an empty
// tensor; use New, FromSlice or Zeros to construct one.
type Tensor struct {
	shape []int
	data  []float64
}

// New creates a zero-filled tensor with the given shape. A scalar is
// represented by an empty shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// The copy keeps shape itself from escaping: a variadic call
			// must not cost a second heap allocation on the path that
			// succeeds.
			panic(check.Invariantf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// Zeros is an alias for New, provided for readability at call sites that
// contrast zero-filled allocations with randomized ones.
func Zeros(shape ...int) *Tensor { return New(shape...) }

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it must have exactly prod(shape) elements.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(check.Invariantf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Shape returns the tensor's dimensions. The caller must not modify the
// returned slice.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of t with a new shape of the same total size.
// The view shares storage with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(check.Invariantf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(check.Invariantf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(check.Invariantf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Row returns a view of row i of a rank-2 tensor.
func (t *Tensor) Row(i int) []float64 {
	if len(t.shape) != 2 {
		panic(check.Invariant("tensor: Row requires a rank-2 tensor"))
	}
	cols := t.shape[1]
	return t.data[i*cols : (i+1)*cols]
}

// Fill sets every element to v and returns t.
func (t *Tensor) Fill(v float64) *Tensor {
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Apply replaces every element x with f(x) and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Map returns a new tensor whose elements are f applied to t's elements.
func (t *Tensor) Map(f func(float64) float64) *Tensor {
	return t.Clone().Apply(f)
}

// Scale multiplies every element by s in place and returns t.
func (t *Tensor) Scale(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AddInPlace adds o elementwise into t and returns t. Shapes must match.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	t.assertSameShape(o, "AddInPlace")
	for i, v := range o.data {
		t.data[i] += v
	}
	return t
}

// Add returns t + o as a new tensor.
func (t *Tensor) Add(o *Tensor) *Tensor {
	return AddInto(New(t.shape...), t, o)
}

// Sub returns t - o as a new tensor.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	t.assertSameShape(o, "Sub")
	r := t.Clone()
	for i, v := range o.data {
		r.data[i] -= v
	}
	return r
}

// Mul returns the elementwise (Hadamard) product of t and o.
func (t *Tensor) Mul(o *Tensor) *Tensor {
	t.assertSameShape(o, "Mul")
	r := t.Clone()
	for i, v := range o.data {
		r.data[i] *= v
	}
	return r
}

// AddRowVector adds a length-cols vector to every row of a rank-2 tensor,
// in place, and returns t. This is the bias-add used by linear layers.
func (t *Tensor) AddRowVector(v []float64) *Tensor {
	if len(t.shape) != 2 {
		panic(check.Invariant("tensor: AddRowVector requires a rank-2 tensor"))
	}
	rows, cols := t.shape[0], t.shape[1]
	if len(v) != cols {
		panic(check.Invariantf("tensor: vector length %d does not match %d columns", len(v), cols))
	}
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		for c := range row {
			row[c] += v[c]
		}
	}
	return t
}

func (t *Tensor) assertSameShape(o *Tensor, op string) {
	if len(t.shape) != len(o.shape) {
		panic(check.Invariantf("tensor: %s shape mismatch %v vs %v", op, t.shape, o.shape))
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			panic(check.Invariantf("tensor: %s shape mismatch %v vs %v", op, t.shape, o.shape))
		}
	}
}

// MatMul returns the matrix product a @ b for rank-2 tensors
// (m×k) @ (k×n) -> (m×n), allocating the result. It runs on the blocked,
// register-tiled kernel in gemm.go; results are bit-identical to the
// reference scalar loops (MatMulRef) for finite inputs. Hot paths should
// use MatMulInto with arena-backed storage instead.
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := gemmDims(a, b, false, "MatMul")
	return MatMulInto(New(m, n), a, b)
}

// MatMulT returns a @ bᵀ for rank-2 tensors (m×k) @ (n×k)ᵀ -> (m×n),
// allocating the result. Attention scores (Q @ Kᵀ) use this form;
// computing against the untransposed b keeps both operands streaming
// row-major. See MatMul for the kernel and determinism notes.
func MatMulT(a, b *Tensor) *Tensor {
	m, _, n := gemmDims(a, b, true, "MatMulT")
	return MatMulTInto(New(m, n), a, b)
}

// Transpose returns the transpose of a rank-2 tensor as a new tensor.
func (t *Tensor) Transpose() *Tensor {
	if len(t.shape) != 2 {
		panic(check.Invariant("tensor: Transpose requires a rank-2 tensor"))
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = t.data[i*n+j]
		}
	}
	return out
}

// Min returns the smallest element. It panics on an empty tensor.
func (t *Tensor) Min() float64 {
	t.assertNonEmpty("Min")
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	t.assertNonEmpty("Max")
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// AbsMax returns max(|x|) over all elements. It panics on an empty tensor.
func (t *Tensor) AbsMax() float64 {
	t.assertNonEmpty("AbsMax")
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Std returns the population standard deviation of all elements.
func (t *Tensor) Std() float64 {
	n := len(t.data)
	if n == 0 {
		return 0
	}
	mean := t.Mean()
	var ss float64
	for _, v := range t.data {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

func (t *Tensor) assertNonEmpty(op string) {
	if len(t.data) == 0 {
		panic(check.Invariantf("tensor: %s on empty tensor", op))
	}
}

// MSE returns the mean squared error between t and o.
func MSE(t, o *Tensor) float64 {
	t.assertSameShape(o, "MSE")
	if len(t.data) == 0 {
		return 0
	}
	var s float64
	for i, v := range t.data {
		d := v - o.data[i]
		s += d * d
	}
	return s / float64(len(t.data))
}

// CosineSimilarity returns the cosine similarity of the two tensors viewed
// as flat vectors, or 0 if either has zero norm.
func CosineSimilarity(a, b *Tensor) float64 {
	a.assertSameShape(b, "CosineSimilarity")
	var dot, na, nb float64
	for i, v := range a.data {
		w := b.data[i]
		dot += v * w
		na += v * v
		nb += w * w
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of the elements using
// linear interpolation between order statistics, matching the Quantile
// operator in the QUQ paper's Algorithm 2. It panics on an empty tensor.
func (t *Tensor) Quantile(q float64) float64 {
	return Quantile(t.data, q)
}

// Quantile returns the q-th linear-interpolation quantile of xs.
// It panics if xs is empty or q is outside [0, 1]. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic(check.Invariant("tensor: Quantile of empty data"))
	}
	if q < 0 || q > 1 {
		panic(check.Invariantf("tensor: quantile %v outside [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ArgMax returns the index of the largest element of a flat view of t.
func (t *Tensor) ArgMax() int {
	t.assertNonEmpty("ArgMax")
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Split returns the positive elements and the negated negative elements of
// t, i.e. (−x[x<0], x[x>0]) from the paper's Algorithm 2 line 3. Zeros are
// excluded from both, as in the paper.
func (t *Tensor) Split() (neg, pos []float64) {
	for _, v := range t.data {
		switch {
		case v > 0:
			pos = append(pos, v)
		case v < 0:
			neg = append(neg, -v)
		}
	}
	return neg, pos
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v{n=%d, min=%.4g, max=%.4g, mean=%.4g, std=%.4g}",
		t.shape, len(t.data), t.Min(), t.Max(), t.Mean(), t.Std())
}
