package ptq

import (
	"runtime"
	"sync"

	"quq/internal/tensor"
	"quq/internal/vit"
)

// BatchChunks cuts a batch of n images into min(n, workers) contiguous,
// near-equal chunks — one stacked forward each — and returns their
// bounds: chunk c is [bounds[c], bounds[c+1]). It is the one chunk rule
// of the serving path (ForwardBatch here, the quq-serve batcher), and a
// constant of the code: as many chunks as there are workers keeps every
// core busy, and no more than that keeps each weight matrix streamed as
// few times per batch as the cores allow. workers <= 0 means GOMAXPROCS.
func BatchChunks(n, workers int) []int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunks := min(n, workers)
	bounds := make([]int, chunks+1)
	for c := range bounds {
		bounds[c] = c * n / max(chunks, 1)
	}
	return bounds
}

// ForwardBatch classifies a batch of images of one shape. The result is
// index-aligned with images, and each output is bit-identical to the
// corresponding lone Forward call whatever its batch-mates, the chunking
// or the worker count: a stacked forward never mixes rows of different
// images, a GEMM element's reduction order does not depend on how many
// rows the GEMM has, and the site quantizers and SFU kernels are
// functions of the element (and its channel) alone.
//
// The batch is cut by BatchChunks into at most workers chunks
// (workers <= 0 means GOMAXPROCS), each run as one batch-major forward
// (vit.Model.ForwardBatch) on its own goroutine: within a chunk every
// weight matrix is packed and streamed once for all of the chunk's
// images instead of once per image, which is where a batch is cheaper
// than its images one by one. This is the batch primitive behind
// quq-serve's micro-batching scheduler; it is exported so non-HTTP
// callers (benchmarks, bulk evaluation) get the same amortization.
//
// The chunks are the only parallelism: every GEMM runs serially inside
// its chunk's goroutine, so a batch uses at most workers cores and a
// one-image call uses one.
func (q *QuantizedModel) ForwardBatch(images []*tensor.Tensor, workers int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(images))
	bounds := BatchChunks(len(images), workers)
	var wg sync.WaitGroup
	for c := 1; c+1 < len(bounds); c++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			copy(out[lo:hi], q.forwardStacked(images[lo:hi], vit.ForwardOpts{}))
		}(bounds[c], bounds[c+1])
	}
	if len(bounds) > 1 {
		// The caller is the first chunk's worker.
		copy(out[:bounds[1]], q.forwardStacked(images[:bounds[1]], vit.ForwardOpts{}))
	}
	wg.Wait()
	return out
}
