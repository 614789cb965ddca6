package serve

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quq/internal/chaos"
	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// batchModel builds one cheap quantized model for batcher tests.
func batchModel(t *testing.T) (*ptq.QuantizedModel, []*tensor.Tensor) {
	t.Helper()
	r := NewRegistry(testRegistryOptions(), nil)
	qm, _, err := r.Get(context.Background(), nanoKey("BaseQ", ptq.Partial))
	if err != nil {
		t.Fatal(err)
	}
	return qm, data.Images(vit.ViTNano, 8, 99)
}

// loadRegimeBatcher builds a batcher whose governor is held in the load
// regime: an underfull batch leaves only by linger, flushIf or Drain,
// which is what tests that need items to sit undispatched rely on.
func loadRegimeBatcher(opts BatcherOptions, met *Metrics) *Batcher {
	b := NewBatcher(opts, NewGovernor(GovernorOptions{Clock: chaos.NewFake()}, met), met)
	holdInLoadRegime(b)
	return b
}

// holdInLoadRegime feeds b's governor one full-batch observation. On a
// fake clock that nothing advances past the occupancy window it never
// ages out, and the few small batches a test dispatches behind it do
// not bring the window average down to the low threshold.
func holdInLoadRegime(b *Batcher) { b.gov.NoteBatch(b.opts.MaxBatch, 0) }

// TestBatcherCoalesces submits items one by one in the load regime under
// a generous linger and checks they dispatch as one batch, bit-identical
// to direct forwards.
func TestBatcherCoalesces(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	b := loadRegimeBatcher(BatcherOptions{MaxBatch: 8, Linger: 20 * time.Millisecond, QueueCap: 64}, met)

	var items []*Item
	for _, img := range imgs[:4] {
		got, err := b.Submit(context.Background(), "k", qm, []*tensor.Tensor{img})
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, got...)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := Await(ctx, items); err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatal(it.Err)
		}
		want := qm.Forward(imgs[i])
		for j, v := range it.Out.Data() {
			if v != want.Data()[j] {
				t.Fatalf("item %d differs from direct forward", i)
			}
		}
	}
	// All four items fit one linger window: a single dispatched batch.
	if n := met.BatchSize.Count(); n != 1 {
		t.Fatalf("dispatched %d batches, want 1", n)
	}
	if met.Images.Value() != 4 {
		t.Fatalf("images = %d, want 4", met.Images.Value())
	}
	if d := met.QueueDepth.Value(); d != 0 {
		t.Fatalf("queue depth after completion = %d, want 0", d)
	}
}

// TestBatcherMaxBatchFlush checks the size trigger: MaxBatch items
// dispatch immediately without waiting out the linger.
func TestBatcherMaxBatchFlush(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	// Hour-long linger: only the size trigger can flush.
	b := NewBatcher(BatcherOptions{MaxBatch: 2, Linger: time.Hour, QueueCap: 64}, nil, met)
	items, err := b.Submit(context.Background(), "k", qm, imgs[:4])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := Await(ctx, items); err != nil {
		t.Fatal(err)
	}
	if n := met.BatchSize.Count(); n != 2 {
		t.Fatalf("dispatched %d batches, want 2 (size-triggered)", n)
	}
}

// TestBatcherImmediateDispatchSkipsLinger pins the governor's half of
// the dispatch decision on a fake clock. The hour-long linger can never
// fire, so the only thing that moves a lone image is the flush at the
// end of Submit: taken in the low-occupancy regime, withheld in the load
// regime until the occupancy window ages out.
func TestBatcherImmediateDispatchSkipsLinger(t *testing.T) {
	qm, imgs := batchModel(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	opts := BatcherOptions{MaxBatch: 8, Linger: time.Hour, QueueCap: 64}
	// open reports whether key "k" still has an undispatched batch.
	open := func(b *Batcher) bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.pend["k"] != nil
	}
	submit := func(b *Batcher, images []*tensor.Tensor) []*Item {
		t.Helper()
		items, err := b.Submit(context.Background(), "k", qm, images)
		if err != nil {
			t.Fatal(err)
		}
		return items
	}

	clk := chaos.NewFake()
	met := NewMetrics()
	gov := NewGovernor(GovernorOptions{Clock: clk}, met)
	b := NewBatcher(opts, gov, met)

	// Idle server, lone single: dispatched by the submit itself, alone.
	single := submit(b, imgs[:1])
	if open(b) {
		t.Fatal("low-occupancy single still pending after Submit: the immediate-dispatch flush did not run")
	}
	if err := Await(ctx, single); err != nil {
		t.Fatal(err)
	}
	if n, occ := met.Occupancy.Count(), met.Occupancy.Sum(); n != 1 || occ != 1.0/8 {
		t.Fatalf("occupancy after the single: %d samples summing to %v, want 1 sample of 1/8", n, occ)
	}

	// One full batch (size-triggered) drops the governor to the load
	// regime: the next single waits for company.
	if err := Await(ctx, submit(b, imgs[:8])); err != nil {
		t.Fatal(err)
	}
	waiting := submit(b, imgs[:1])
	if !open(b) {
		t.Fatal("single flushed at submit right after a full batch: load regime must keep lingering")
	}
	// Once the full batch ages out of the window, the next submit is back
	// in the low-occupancy regime and takes the waiting single with it.
	if err := clk.Sleep(ctx, 600*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waiting = append(waiting, submit(b, imgs[1:2])...)
	if open(b) {
		t.Fatal("batch still pending after the occupancy window aged out")
	}
	if err := Await(ctx, waiting); err != nil {
		t.Fatal(err)
	}
	if n := met.BatchSize.Count(); n != 3 {
		t.Fatalf("dispatched %d batches, want 3 (single, full, aged-out pair)", n)
	}
}

// TestBatcherFlushStopsLingerTimer: a batch that leaves before its
// linger — here at submit, on an idle server — disarms the timer, so it
// neither fires into flushIf later nor pins the batch until then.
func TestBatcherFlushStopsLingerTimer(t *testing.T) {
	qm, imgs := batchModel(t)
	b := NewBatcher(BatcherOptions{Linger: time.Hour}, nil, nil)
	items, err := b.Submit(context.Background(), "k", qm, imgs[:1])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := Await(ctx, items); err != nil {
		t.Fatal(err)
	}
	// Stop reports true only for a timer that was still armed.
	if items[0].p.linger.Stop() {
		t.Fatal("linger timer still armed after its batch was flushed")
	}
}

// TestBatcherBackpressureAndDrain fills the queue under an hour-long
// linger, checks ErrQueueFull, then drains and checks the stuck items
// complete and late submits are refused.
func TestBatcherBackpressureAndDrain(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	b := loadRegimeBatcher(BatcherOptions{MaxBatch: 64, Linger: time.Hour, QueueCap: 3}, met)

	items, err := b.Submit(context.Background(), "k", qm, imgs[:3])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Submit(context.Background(), "k", qm, imgs[3:4]); err != ErrQueueFull {
		t.Fatalf("over-capacity submit: err = %v, want ErrQueueFull", err)
	}
	if met.Rejected.Value() != 1 {
		t.Fatalf("rejected = %d, want 1", met.Rejected.Value())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := Await(ctx, items); err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.Err != nil || it.Out == nil {
			t.Fatalf("drained item incomplete: out=%v err=%v", it.Out, it.Err)
		}
	}
	if _, err := b.Submit(context.Background(), "k", qm, imgs[:1]); err != ErrDraining {
		t.Fatalf("post-drain submit: err = %v, want ErrDraining", err)
	}
}

// TestAwaitTimeout: Await must respect an expired context while workers
// finish in the background. The batcher holds its lone image for an
// hour-long linger, so the item cannot be done before Await runs — a
// done item would make both of Await's select cases ready.
func TestAwaitTimeout(t *testing.T) {
	qm, imgs := batchModel(t)
	b := loadRegimeBatcher(BatcherOptions{MaxBatch: 64, Linger: time.Hour, QueueCap: 8}, NewMetrics())
	items, err := b.Submit(context.Background(), "k", qm, imgs[:1])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Await(ctx, items); err != context.Canceled {
		t.Fatalf("Await on cancelled ctx = %v, want context.Canceled", err)
	}
	// Drain still completes the work.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := b.Drain(dctx); err != nil {
		t.Fatal(err)
	}
}

// TestBatcherCancelledSubmitterFreesSlot is the abandoned-client
// regression: a submitter whose context expires while its items are
// still queued must release its QueueCap slots immediately, not hold
// them until dispatch.
func TestBatcherCancelledSubmitterFreesSlot(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	// Hour-long linger and a roomy MaxBatch: nothing dispatches on its
	// own, so the only way the slots come back is the abandonment path.
	b := loadRegimeBatcher(BatcherOptions{MaxBatch: 64, Linger: time.Hour, QueueCap: 2}, met)

	ctx, cancel := context.WithCancel(context.Background())
	items, err := b.Submit(ctx, "k", qm, imgs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Submit(context.Background(), "k", qm, imgs[2:3]); err != ErrQueueFull {
		t.Fatalf("queue not full before cancellation: err = %v", err)
	}
	cancel()
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := Await(wctx, items); err != nil {
		t.Fatalf("abandoned items never finished: %v", err)
	}
	for _, it := range items {
		if it.Err != context.Canceled || it.Out != nil {
			t.Fatalf("abandoned item: out=%v err=%v, want ctx error and no output", it.Out, it.Err)
		}
	}
	if got := met.Abandoned.Value(); got != 2 {
		t.Fatalf("abandoned = %d, want 2", got)
	}
	if d := met.QueueDepth.Value(); d != 0 {
		t.Fatalf("queue depth after abandonment = %d, want 0", d)
	}

	// The freed slots are usable again, and the batcher still works.
	items, err = b.Submit(context.Background(), "k", qm, imgs[3:5])
	if err != nil {
		t.Fatalf("submit after abandonment: %v", err)
	}
	if err := b.Drain(wctx); err != nil {
		t.Fatal(err)
	}
	if err := Await(wctx, items); err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.Err != nil || it.Out == nil {
			t.Fatalf("post-abandonment item: out=%v err=%v", it.Out, it.Err)
		}
	}
}

// TestBatcherCancelledBeforeDispatchSkipsForward covers the second half
// of the cancellation seam: items already flushed to a worker when the
// context expires are finished with the context error before paying for
// the forward pass.
func TestBatcherCancelledBeforeDispatchSkipsForward(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	forwards := 0
	gate := make(chan struct{})
	b := loadRegimeBatcher(BatcherOptions{
		MaxBatch: 64, Linger: time.Hour, QueueCap: 8, Workers: 1,
		ForwardHook: func(string) { <-gate; forwards++ },
	}, met)

	// The single worker slot serializes the batch: at most the first
	// item can enter the hook before cancellation; the ones behind it
	// re-check the (by then expired) context after getting their token.
	items, err := b.Submit(ctx, "k", qm, imgs[:3])
	if err != nil {
		t.Fatal(err)
	}
	b.flushIf("k", items[0].p)
	cancel()
	close(gate)
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := Await(wctx, items); err != nil {
		t.Fatal(err)
	}
	if err := b.Drain(wctx); err != nil {
		t.Fatal(err)
	}
	if forwards > 1 {
		t.Fatalf("%d forwards ran despite cancellation, want at most 1", forwards)
	}
	for _, it := range items[1:] {
		if it.Err != context.Canceled || it.Out != nil {
			t.Fatalf("cancelled dispatched item: out=%v err=%v", it.Out, it.Err)
		}
	}
}

// TestBatcherForwardHookPanicConverted: a panicking worker (the chaos
// layer's stand-in for a crashing forward pass) surfaces as a per-item
// error and leaves the batcher serviceable.
func TestBatcherForwardHookPanicConverted(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	first := true
	b := NewBatcher(BatcherOptions{
		MaxBatch: 1, Linger: time.Hour, QueueCap: 8,
		ForwardHook: func(key string) {
			if first {
				first = false
				panic("chaos: injected worker crash")
			}
		},
	}, nil, met)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	items, err := b.Submit(context.Background(), "k", qm, imgs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := Await(ctx, items); err != nil {
		t.Fatal(err)
	}
	if items[0].Err == nil || !strings.Contains(items[0].Err.Error(), "panicked") {
		t.Fatalf("panicking forward: err = %v, want a converted panic error", items[0].Err)
	}
	if met.Panics.Value() != 1 {
		t.Fatalf("panics = %d, want 1", met.Panics.Value())
	}

	// The pool token was released: the next item must still run.
	items, err = b.Submit(context.Background(), "k", qm, imgs[1:2])
	if err != nil {
		t.Fatal(err)
	}
	if err := Await(ctx, items); err != nil {
		t.Fatal(err)
	}
	if items[0].Err != nil || items[0].Out == nil {
		t.Fatalf("post-panic item: out=%v err=%v", items[0].Out, items[0].Err)
	}
}

// submitEach admits imgs one submit apiece, each under its own
// cancellable context, into one undispatched batch of a load-regime
// batcher, and returns the items with their cancel functions.
func submitEach(t *testing.T, b *Batcher, qm *ptq.QuantizedModel, imgs []*tensor.Tensor) ([]*Item, []context.CancelFunc) {
	t.Helper()
	var items []*Item
	var cancels []context.CancelFunc
	for _, img := range imgs {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		got, err := b.Submit(ctx, "k", qm, []*tensor.Tensor{img})
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, got...)
		cancels = append(cancels, cancel)
	}
	return items, cancels
}

func assertServedLogits(t *testing.T, qm *ptq.QuantizedModel, it *Item, img *tensor.Tensor) {
	t.Helper()
	if it.Err != nil || it.Out == nil {
		t.Fatalf("live item: out=%v err=%v", it.Out, it.Err)
	}
	want := qm.Forward(img)
	for j, v := range it.Out.Data() {
		if math.Float64bits(v) != math.Float64bits(want.Data()[j]) {
			t.Fatalf("logit %d = %v, lone forward %v", j, v, want.Data()[j])
		}
	}
}

// TestBatcherChunkDropsCancelledItem: a chunk is one stacked forward, and
// an item whose submitter hung up before its turn is left out of the
// stack — no hook, no forward, its context's error — while the mates on
// either side of it are served the logits a lone forward gives them, and
// the governor's service sample is the 20 ms over the two images that ran.
func TestBatcherChunkDropsCancelledItem(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	clk := chaos.NewFake()
	var cancels []context.CancelFunc
	hooks := 0
	b := NewBatcher(BatcherOptions{
		MaxBatch: 64, Linger: time.Hour, QueueCap: 8, Workers: 1,
		ForwardHook: func(string) {
			// The first live item's hook is where the middle one's
			// submitter hangs up: dispatched, not yet looked at.
			if hooks++; hooks == 1 {
				cancels[1]()
			}
			_ = clk.Sleep(context.Background(), 10*time.Millisecond)
		},
	}, NewGovernor(GovernorOptions{Clock: clk}, met), met)
	holdInLoadRegime(b)
	items, cancels := submitEach(t, b, qm, imgs[:3])
	b.flushIf("k", items[0].p)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := Await(ctx, items); err != nil {
		t.Fatal(err)
	}
	if err := b.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if hooks != 2 {
		t.Fatalf("hook ran %d times, want 2: once per live item, never for the dead one", hooks)
	}
	if items[1].Err != context.Canceled || items[1].Out != nil {
		t.Fatalf("cancelled item: out=%v err=%v, want the context's error and no output", items[1].Out, items[1].Err)
	}
	assertServedLogits(t, qm, items[0], imgs[0])
	assertServedLogits(t, qm, items[2], imgs[2])
	if got := met.Abandoned.Value(); got != 1 {
		t.Fatalf("abandoned = %d, want 1", got)
	}
	if got := b.gov.EstimatedWait(1); got != 10*time.Millisecond {
		t.Fatalf("service estimate = %v an image, want 10ms (20ms over the 2 images that ran)", got)
	}
}

// TestBatcherServiceEstimateSkipsImagesThatNeverRan is the under-shedding
// regression: three of a batch's four submitters hang up between dispatch
// and the worker's last look, one 10 ms forward runs, and the estimate
// admission control divides the queue by must read 10 ms an image — not
// the 2.5 ms that charging the batch's four would make it, a quarter of
// the truth right after a burst of hang-ups.
func TestBatcherServiceEstimateSkipsImagesThatNeverRan(t *testing.T) {
	qm, imgs := batchModel(t)
	clk := chaos.NewFake()
	var cancels []context.CancelFunc
	b := NewBatcher(BatcherOptions{
		MaxBatch: 64, Linger: time.Hour, QueueCap: 8, Workers: 1,
		ForwardHook: func(string) {
			for _, cancel := range cancels[1:] {
				cancel()
			}
			_ = clk.Sleep(context.Background(), 10*time.Millisecond)
		},
	}, NewGovernor(GovernorOptions{Clock: clk}, nil), nil)
	holdInLoadRegime(b)
	items, cancels := submitEach(t, b, qm, imgs[:4])
	b.flushIf("k", items[0].p)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := Await(ctx, items); err != nil {
		t.Fatal(err)
	}
	if items[0].Out == nil {
		t.Fatalf("the live item was not served: %v", items[0].Err)
	}
	for _, it := range items[1:] {
		if it.Err != context.Canceled {
			t.Fatalf("hung-up item: err = %v, want context.Canceled", it.Err)
		}
	}
	if got := b.gov.EstimatedWait(1); got != 10*time.Millisecond {
		t.Fatalf("service estimate = %v an image after one 10ms forward, want 10ms", got)
	}
}

// TestBatcherPanicFailsItsChunkOnly: with two workers a batch of four
// runs as two chunks of two. A hook that panics once takes down the chunk
// it ran in — both items, since they were to share one forward — and the
// other chunk serves its two untouched; Drain still joins everything and
// the pool token comes back.
func TestBatcherPanicFailsItsChunkOnly(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	var panicked atomic.Bool
	b := loadRegimeBatcher(BatcherOptions{
		MaxBatch: 64, Linger: time.Hour, QueueCap: 8, Workers: 2,
		ForwardHook: func(string) {
			if panicked.CompareAndSwap(false, true) {
				panic("chaos: injected worker crash")
			}
		},
	}, met)
	items, err := b.Submit(context.Background(), "k", qm, imgs[:4])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := Await(ctx, items); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for c := 0; c < 4; c += 2 {
		if items[c].Err == nil {
			assertServedLogits(t, qm, items[c], imgs[c])
			assertServedLogits(t, qm, items[c+1], imgs[c+1])
			continue
		}
		failed++
		for _, it := range items[c : c+2] {
			if it.Err == nil || !strings.Contains(it.Err.Error(), "panicked") || it.Out != nil {
				t.Fatalf("item of the panicked chunk: out=%v err=%v, want the converted panic", it.Out, it.Err)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d chunks failed, want exactly the one the panic ran in", failed)
	}
	if got := met.Panics.Value(); got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
	if len(b.tokens) != 0 {
		t.Fatalf("%d pool tokens still held after the drain", len(b.tokens))
	}
}
