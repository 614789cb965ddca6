package tensor

import (
	"sync"

	"quq/internal/check"
)

// Arena is a scratch allocator for per-forward intermediates. A forward
// pass grabs one with GetArena, carves tensors out of it with New /
// NewUninit, optionally hands buffers back mid-pass with Put, and returns
// the whole arena to the process-wide pool with Release. Buffers are
// recycled by exact element count, so the steady state of a fixed-shape
// workload (the same model forward over and over) allocates nothing.
//
// An Arena is single-goroutine scratch: it must not be shared across
// goroutines without external synchronization. Escape safety is by
// construction — a tensor that is never Put back is simply garbage
// collected like any other allocation — but a tensor that *is* Put (or
// whose arena buffer is recycled after Release by a later GetArena
// caller) must not be used again. Tensors that outlive the pass (model
// outputs, tap captures) should come from tensor.New, not the arena.
type Arena struct {
	free   map[int][]*Tensor
	free64 map[int][][]int64
}

var arenaPool = sync.Pool{
	New: func() any {
		return &Arena{
			free:   make(map[int][]*Tensor),
			free64: make(map[int][][]int64),
		}
	},
}

// GetArena returns a scratch arena from the process-wide pool.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// Release returns the arena — and every tensor that was Put back into it
// — to the process-wide pool for reuse by later GetArena callers.
func (a *Arena) Release() { arenaPool.Put(a) }

// NewUninit returns a tensor of the given shape whose contents are
// unspecified (a recycled tensor keeps its stale values). Use it for
// destinations that are fully overwritten — MatMulInto and friends store
// every element — where zero-filling would be wasted work. Recycling is
// by exact element count: the tensor object and its storage are reused
// whole, so a steady-state hit performs no allocation at all.
func (a *Arena) NewUninit(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// The copy keeps shape itself from escaping: a variadic call
			// must not cost a heap allocation on the path that succeeds.
			panic(check.Invariantf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	ts := a.free[n]
	if len(ts) == 0 {
		return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
	}
	t := ts[len(ts)-1]
	a.free[n] = ts[:len(ts)-1]
	if cap(t.shape) >= len(shape) {
		t.shape = t.shape[:len(shape)]
		copy(t.shape, shape)
	} else {
		t.shape = append([]int(nil), shape...)
	}
	return t
}

// New returns a zero-filled tensor of the given shape, recycling a
// pooled tensor when one of the exact size is available.
func (a *Arena) New(shape ...int) *Tensor {
	t := a.NewUninit(shape...)
	for i := range t.data {
		t.data[i] = 0
	}
	return t
}

// Put recycles t — object and storage — for a later NewUninit/New of the
// same element count. The caller must not use t (or any view sharing its
// storage, e.g. from FromSlice or Reshape) afterwards.
func (a *Arena) Put(t *Tensor) {
	n := len(t.data)
	a.free[n] = append(a.free[n], t)
}

// Int64 returns an n-element int64 scratch slice whose contents are
// unspecified (a recycled slice keeps its stale values). It is the
// integer datapath's counterpart of NewUninit: destinations and decode
// buffers for the int64 GEMM kernels, recycled by exact length so the
// steady state of a fixed-shape workload allocates nothing.
func (a *Arena) Int64(n int) []int64 {
	if n < 0 {
		panic(check.Invariantf("tensor: negative int64 scratch length %d", n))
	}
	ss := a.free64[n]
	if len(ss) == 0 {
		return make([]int64, n)
	}
	s := ss[len(ss)-1]
	a.free64[n] = ss[:len(ss)-1]
	return s
}

// PutInt64 recycles s for a later Int64 of the same length. The caller
// must not use s (or any slice sharing its storage) afterwards.
func (a *Arena) PutInt64(s []int64) {
	n := len(s)
	a.free64[n] = append(a.free64[n], s)
}
