package serve

import (
	"context"
	"strings"
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
// finish in the background.
func TestAwaitTimeout(t *testing.T) {
	qm, imgs := batchModel(t)
	b := NewBatcher(BatcherOptions{MaxBatch: 64, Linger: time.Hour, QueueCap: 8}, nil, nil)
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
