package serve

import (
	"context"
	"math"
	"strings"
	"sync"
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

// twoModels builds two distinct cheap quantized models for batcher tests.
func twoModels(t *testing.T) (*ptq.QuantizedModel, *ptq.QuantizedModel) {
	t.Helper()
	r := NewRegistry(testRegistryOptions(), nil)
	var qms [2]*ptq.QuantizedModel
	for i, regime := range []ptq.Regime{ptq.Partial, ptq.Full} {
		qm, _, err := r.Get(context.Background(), nanoKey("BaseQ", regime))
		if err != nil {
			t.Fatal(err)
		}
		qms[i] = qm
	}
	return qms[0], qms[1]
}

// workerGate holds workers inside their forwards. hold submits one image
// under a key of its own and returns once a worker has taken it and
// parked in ForwardHook; release lets that worker go. Every other key's
// hook call runs next, when set. A test that holds every worker this way
// knows that what it submits next waits in the FIFO.
type workerGate struct {
	next   func(key string)
	mu     sync.Mutex
	held   map[string]chan struct{}
	parked chan struct{}
}

func newWorkerGate(t *testing.T, next func(string)) *workerGate {
	g := &workerGate{next: next, held: map[string]chan struct{}{}, parked: make(chan struct{}, 1)}
	t.Cleanup(g.releaseAll)
	return g
}

func (g *workerGate) hook(key string) {
	g.mu.Lock()
	ch, held := g.held[key]
	g.mu.Unlock()
	if !held {
		if g.next != nil {
			g.next(key)
		}
		return
	}
	g.parked <- struct{}{}
	<-ch
}

func (g *workerGate) hold(t *testing.T, b *Batcher, key string, qm *ptq.QuantizedModel, img *tensor.Tensor) []*Item {
	t.Helper()
	g.mu.Lock()
	g.held[key] = make(chan struct{})
	g.mu.Unlock()
	items, err := b.Submit(context.Background(), key, qm, []*tensor.Tensor{img})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.parked:
	case <-time.After(30 * time.Second):
		t.Fatalf("no worker took %s", key)
	}
	return items
}

func (g *workerGate) release(key string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if ch, ok := g.held[key]; ok {
		close(ch)
		delete(g.held, key)
	}
}

func (g *workerGate) releaseAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for key, ch := range g.held {
		close(ch)
		delete(g.held, key)
	}
}

// meetHook returns a ForwardHook whose first n calls wait for each other
// before any goes on, then runs next (if set) for every call: n workers
// are inside their forwards at once, so each took while the others were
// busy.
func meetHook(n int, next func(string)) func(string) {
	var met sync.WaitGroup
	met.Add(n)
	var calls atomic.Int64
	return func(key string) {
		if calls.Add(1) <= int64(n) {
			met.Done()
			met.Wait()
		}
		if next != nil {
			next(key)
		}
	}
}

func await(t *testing.T, items []*Item) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := Await(ctx, items); err != nil {
		t.Fatal(err)
	}
}

func drain(t *testing.T, b *Batcher) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func submit(t *testing.T, b *Batcher, key string, qm *ptq.QuantizedModel, images []*tensor.Tensor) []*Item {
	t.Helper()
	items, err := b.Submit(context.Background(), key, qm, images)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// TestBatcherCoalesces submits items one by one behind a held worker and
// checks they run as one take, bit-identical to direct forwards.
func TestBatcherCoalesces(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	g := newWorkerGate(t, nil)
	b := NewBatcher(BatcherOptions{MaxBatch: 8, QueueCap: 64, Workers: 1, ForwardHook: g.hook}, nil, met)
	held := g.hold(t, b, "hold", qm, imgs[7])

	var items []*Item
	for _, img := range imgs[:4] {
		items = append(items, submit(t, b, "k", qm, []*tensor.Tensor{img})...)
	}
	g.release("hold")
	await(t, append(held, items...))
	for i, it := range items {
		assertServedLogits(t, qm, it, imgs[i])
	}
	// The holder's take, then all four in one.
	if n, sum := met.BatchSize.Count(), met.BatchSize.Sum(); n != 2 || sum != 5 {
		t.Fatalf("%d takes of %v images, want 2 of 5 (the holder, then the four)", n, sum)
	}
	if met.Images.Value() != 5 {
		t.Fatalf("images = %d, want 5", met.Images.Value())
	}
	if d := met.QueueDepth.Value(); d != 0 {
		t.Fatalf("queue depth after completion = %d, want 0", d)
	}
}

// TestBatcherMaxBatchFlush checks the size bound: one worker takes at
// most MaxBatch images a forward, so a 4-image request under MaxBatch 2
// leaves as two 2-image forwards.
func TestBatcherMaxBatchFlush(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	b := NewBatcher(BatcherOptions{MaxBatch: 2, QueueCap: 64, Workers: 1}, nil, met)
	await(t, submit(t, b, "k", qm, imgs[:4]))
	drain(t, b)
	if n, sum := met.BatchSize.Count(), met.BatchSize.Sum(); n != 2 || sum != 4 {
		t.Fatalf("%d takes of %v images, want 2 of 4 (size-bounded)", n, sum)
	}
}

// TestBatcherTakeLoneSingleStartsAtOnce: on an idle batcher a lone single
// is taken by the worker its submit starts and forwarded with no clock
// advance — no timer, later submit or drain moves it — and once the
// FIFO is dry the batcher holds no worker.
func TestBatcherTakeLoneSingleStartsAtOnce(t *testing.T) {
	qm, imgs := batchModel(t)
	clk := chaos.NewFake()
	met := NewMetrics()
	var started time.Time
	b := NewBatcher(BatcherOptions{
		MaxBatch: 8, Workers: 2,
		ForwardHook: func(string) { started = clk.Now() },
	}, NewGovernor(GovernorOptions{Clock: clk}), met)
	submitted := clk.Now()
	items := submit(t, b, "k", qm, imgs[:1])
	await(t, items)
	assertServedLogits(t, qm, items[0], imgs[0])
	if started != submitted {
		t.Fatalf("forward started %v after the submit, want at once", started.Sub(submitted))
	}
	if n, occ := met.Occupancy.Count(), met.Occupancy.Sum(); n != 1 || occ != 1.0/4 {
		t.Fatalf("occupancy: %d samples summing to %v, want 1 sample of 1/⌈8/2⌉", n, occ)
	}
	drain(t, b)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.workers != 0 || b.busy != 0 {
		t.Fatalf("%d workers (%d busy) alive on a drained batcher, want none", b.workers, b.busy)
	}
}

// TestBatcherTakeSplitsALoneRequest: a 4-image request on two idle workers
// runs as two 2-image forwards — ptq.BatchChunks' split of the same
// request — each bit-identical per image.
func TestBatcherTakeSplitsALoneRequest(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	b := NewBatcher(BatcherOptions{MaxBatch: 8, Workers: 2, ForwardHook: meetHook(2, nil)}, nil, met)
	items := submit(t, b, "k", qm, imgs[:4])
	await(t, items)
	for i, it := range items {
		assertServedLogits(t, qm, it, imgs[i])
	}
	// At most ⌈4 / 2⌉ a take, so two takes of four images are two of two.
	if n, sum := met.BatchSize.Count(), met.BatchSize.Sum(); n != 2 || sum != 4 {
		t.Fatalf("%d takes of %v images, want two 2-image forwards", n, sum)
	}
	drain(t, b)
}

// TestBatcherTakeClosedLoopSinglesNeverStack: two closed-loop clients of
// one model on two workers. Each client's single is queued only while
// its own previous forward is done, so both workers are free whenever
// both singles wait, and every take holds one image. A worker counted
// busy until after it woke its submitter would stack the two singles
// into one forward while the other worker idled.
func TestBatcherTakeClosedLoopSinglesNeverStack(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	b := NewBatcher(BatcherOptions{MaxBatch: 8, Workers: 2}, nil, met)
	const rounds = 40
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(img *tensor.Tensor) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				items, err := b.Submit(context.Background(), "k", qm, []*tensor.Tensor{img})
				if err != nil {
					t.Error(err)
					return
				}
				if err := Await(context.Background(), items); err != nil || items[0].Err != nil {
					t.Error(err, items[0].Err)
					return
				}
			}
		}(imgs[c])
	}
	wg.Wait()
	drain(t, b)
	if n, sum := met.BatchSize.Count(), met.BatchSize.Sum(); n != 2*rounds || sum != 2*rounds {
		t.Fatalf("%d takes of %v images, want %d takes of one", n, sum, 2*rounds)
	}
}

// TestBatcherTakeCapsAndOldestModelFirst: with every worker held, what
// queues behind them coalesces per model, at most ⌈MaxBatch / Workers⌉ a
// take, the oldest waiting item's model first and each model's items in
// arrival order. One worker is let go while the other stays held, so
// each take sees one free worker and the order is the script's.
func TestBatcherTakeCapsAndOldestModelFirst(t *testing.T) {
	x, y := twoModels(t)
	imgs := data.Images(vit.ViTNano, 8, 99)
	met := NewMetrics()
	var mu sync.Mutex
	var order []string
	g := newWorkerGate(t, func(key string) {
		mu.Lock()
		order = append(order, key)
		mu.Unlock()
	})
	b := NewBatcher(BatcherOptions{MaxBatch: 6, QueueCap: 64, Workers: 2, ForwardHook: g.hook}, nil, met)
	held := append(g.hold(t, b, "hold-a", x, imgs[0]), g.hold(t, b, "hold-b", x, imgs[0])...)

	xs := submit(t, b, "x", x, imgs[:1])
	ys := submit(t, b, "y", y, imgs[1:4])
	xs = append(xs, submit(t, b, "x", x, imgs[4:8])...)
	g.release("hold-a")
	await(t, append(xs, ys...))
	g.release("hold-b")
	await(t, held)
	drain(t, b)

	// x's five cap at three, y's three are next-oldest, then x's last two.
	if got, want := strings.Join(order, ","), "x,x,x,y,y,y,x,x"; got != want {
		t.Fatalf("forward order %s, want %s", got, want)
	}
	if n, sum := met.BatchSize.Count(), met.BatchSize.Sum(); n != 5 || sum != 10 {
		t.Fatalf("%d takes of %v images, want 5 of 10 (two holders, then 3 + 3 + 2)", n, sum)
	}
	xImgs := append([]*tensor.Tensor{imgs[0]}, imgs[4:8]...)
	for i, it := range xs {
		assertServedLogits(t, x, it, xImgs[i])
	}
	for i, it := range ys {
		assertServedLogits(t, y, it, imgs[1+i])
	}
}

// TestBatcherTakeGroupsByModelNotKey: a key whose model is replaced in
// place (Registry.InstallSnapshot) has items of the old and the new
// model waiting under one key string. A take groups by model, so each
// item is served by the model it was admitted for.
func TestBatcherTakeGroupsByModelNotKey(t *testing.T) {
	old, repaired := twoModels(t)
	_, imgs := batchModel(t)
	met := NewMetrics()
	g := newWorkerGate(t, nil)
	b := NewBatcher(BatcherOptions{MaxBatch: 8, QueueCap: 64, Workers: 1, ForwardHook: g.hook}, nil, met)
	held := g.hold(t, b, "hold", old, imgs[7])
	first := submit(t, b, "k", old, imgs[:1])
	second := submit(t, b, "k", repaired, imgs[1:2])
	g.release("hold")
	await(t, append(held, append(first, second...)...))
	drain(t, b)
	assertServedLogits(t, old, first[0], imgs[0])
	assertServedLogits(t, repaired, second[0], imgs[1])
	if n := met.BatchSize.Count(); n != 3 {
		t.Fatalf("%d takes, want 3: the holder, then one per model", n)
	}
}

// TestBatcherBackpressureAndDrain fills the queue behind a held worker,
// checks ErrQueueFull, then drains with items still waiting in the FIFO
// and checks they complete and late submits are refused.
func TestBatcherBackpressureAndDrain(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	g := newWorkerGate(t, nil)
	b := NewBatcher(BatcherOptions{MaxBatch: 64, QueueCap: 3, Workers: 1, ForwardHook: g.hook}, nil, met)
	items := append(g.hold(t, b, "hold", qm, imgs[7]), submit(t, b, "k", qm, imgs[:2])...)
	if _, err := b.Submit(context.Background(), "k", qm, imgs[3:4]); err != ErrQueueFull {
		t.Fatalf("over-capacity submit: err = %v, want ErrQueueFull", err)
	}
	if met.Rejected.Value() != 1 {
		t.Fatalf("rejected = %d, want 1", met.Rejected.Value())
	}

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		drain(t, b)
	}()
	waitFor(t, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.draining
	})
	g.release("hold")
	<-drained
	await(t, items)
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
// finish in the background. The item is held inside its forward, so it
// cannot be done before Await runs — a done item would make both of
// Await's select cases ready.
func TestAwaitTimeout(t *testing.T) {
	qm, imgs := batchModel(t)
	g := newWorkerGate(t, nil)
	b := NewBatcher(BatcherOptions{Workers: 1, ForwardHook: g.hook}, nil, NewMetrics())
	items := g.hold(t, b, "k", qm, imgs[0])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Await(ctx, items); err != context.Canceled {
		t.Fatalf("Await on cancelled ctx = %v, want context.Canceled", err)
	}
	// Drain still completes the work.
	g.release("k")
	drain(t, b)
}

// TestBatcherCancelledSubmitterFreesSlot is the abandoned-client
// regression: a submitter whose context expires while its items still
// wait in the FIFO must release its QueueCap slots immediately, not hold
// them until a worker frees up.
func TestBatcherCancelledSubmitterFreesSlot(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	// The one worker is held: the only way the slots come back is the
	// abandonment path.
	g := newWorkerGate(t, nil)
	b := NewBatcher(BatcherOptions{MaxBatch: 64, QueueCap: 3, Workers: 1, ForwardHook: g.hook}, nil, met)
	held := g.hold(t, b, "hold", qm, imgs[7])

	ctx, cancel := context.WithCancel(context.Background())
	items, err := b.Submit(ctx, "k", qm, imgs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Submit(context.Background(), "k", qm, imgs[2:3]); err != ErrQueueFull {
		t.Fatalf("queue not full before cancellation: err = %v", err)
	}
	cancel()
	await(t, items)
	for _, it := range items {
		if it.Err != context.Canceled || it.Out != nil {
			t.Fatalf("abandoned item: out=%v err=%v, want ctx error and no output", it.Out, it.Err)
		}
	}
	if got := met.Abandoned.Value(); got != 2 {
		t.Fatalf("abandoned = %d, want 2", got)
	}
	if d := met.QueueDepth.Value(); d != 1 {
		t.Fatalf("queue depth after abandonment = %d, want 1 (the held item)", d)
	}

	// The freed slots are usable again, and the batcher still works.
	items = submit(t, b, "k", qm, imgs[3:5])
	g.release("hold")
	drain(t, b)
	await(t, append(held, items...))
	for _, it := range items {
		if it.Err != nil || it.Out == nil {
			t.Fatalf("post-abandonment item: out=%v err=%v", it.Out, it.Err)
		}
	}
}

// TestBatcherCancelledBeforeDispatchSkipsForward covers the second half
// of the cancellation seam: items a worker already took when the context
// expires are finished with the context error before paying for the
// forward pass.
func TestBatcherCancelledBeforeDispatchSkipsForward(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	forwards := 0
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	b := NewBatcher(BatcherOptions{
		MaxBatch: 64, QueueCap: 8, Workers: 1,
		ForwardHook: func(string) {
			if forwards == 0 {
				entered <- struct{}{}
				<-gate
			}
			forwards++
		},
	}, nil, met)

	// The one worker takes all three and parks in the first one's hook;
	// the two behind it re-check the (by then expired) context.
	items, err := b.Submit(ctx, "k", qm, imgs[:3])
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	cancel()
	close(gate)
	await(t, items)
	drain(t, b)
	if forwards != 1 {
		t.Fatalf("%d forwards ran, want only the one started before cancellation", forwards)
	}
	for _, it := range items[1:] {
		if it.Err != context.Canceled || it.Out != nil {
			t.Fatalf("cancelled taken item: out=%v err=%v", it.Out, it.Err)
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
		MaxBatch: 1, QueueCap: 8,
		ForwardHook: func(key string) {
			if first {
				first = false
				panic("chaos: injected worker crash")
			}
		},
	}, nil, met)

	items := submit(t, b, "k", qm, imgs[:1])
	await(t, items)
	if items[0].Err == nil || !strings.Contains(items[0].Err.Error(), "panicked") {
		t.Fatalf("panicking forward: err = %v, want a converted panic error", items[0].Err)
	}
	if met.Panics.Value() != 1 {
		t.Fatalf("panics = %d, want 1", met.Panics.Value())
	}

	// The worker came free again: the next item must still run.
	items = submit(t, b, "k", qm, imgs[1:2])
	await(t, items)
	if items[0].Err != nil || items[0].Out == nil {
		t.Fatalf("post-panic item: out=%v err=%v", items[0].Out, items[0].Err)
	}
}

// submitEach admits imgs one submit apiece, each under its own
// cancellable context, and returns the items with their cancel
// functions.
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

// TestBatcherChunkDropsCancelledItem: a take is one stacked forward, and
// an item whose submitter hung up before its turn is left out of the
// stack — no hook, no forward, its context's error — while the mates on
// either side of it are served the logits a lone forward gives them, and
// the governor's service sample is the 20 ms over the two images that
// ran. The three queue behind a held worker, so they leave as one take;
// the holder's forward takes no fake time, which leaves the estimate
// unset.
func TestBatcherChunkDropsCancelledItem(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	clk := chaos.NewFake()
	var cancels []context.CancelFunc
	hooks := 0
	g := newWorkerGate(t, func(string) {
		// The first live item's hook is where the middle one's
		// submitter hangs up: taken, not yet looked at.
		if hooks++; hooks == 1 {
			cancels[1]()
		}
		_ = clk.Sleep(context.Background(), 10*time.Millisecond)
	})
	b := NewBatcher(BatcherOptions{MaxBatch: 64, QueueCap: 8, Workers: 1, ForwardHook: g.hook},
		NewGovernor(GovernorOptions{Clock: clk}), met)
	held := g.hold(t, b, "hold", qm, imgs[7])
	items, cancels := submitEach(t, b, qm, imgs[:3])
	g.release("hold")
	await(t, append(held, items...))
	drain(t, b)
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
// regression: three of a take's four submitters hang up between the take
// and the worker's last look, one 10 ms forward runs, and the estimate
// admission control divides the queue by must read 10 ms an image — not
// the 2.5 ms that charging the take's four would make it, a quarter of
// the truth right after a burst of hang-ups.
func TestBatcherServiceEstimateSkipsImagesThatNeverRan(t *testing.T) {
	qm, imgs := batchModel(t)
	clk := chaos.NewFake()
	var cancels []context.CancelFunc
	g := newWorkerGate(t, func(string) {
		for _, cancel := range cancels[1:] {
			cancel()
		}
		_ = clk.Sleep(context.Background(), 10*time.Millisecond)
	})
	b := NewBatcher(BatcherOptions{MaxBatch: 64, QueueCap: 8, Workers: 1, ForwardHook: g.hook},
		NewGovernor(GovernorOptions{Clock: clk}), nil)
	held := g.hold(t, b, "hold", qm, imgs[7])
	items, cancels := submitEach(t, b, qm, imgs[:4])
	g.release("hold")
	await(t, append(held, items...))
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

// TestBatcherPanicFailsItsChunkOnly: with two workers a request of four
// runs as two takes of two. A hook that panics once takes down the take
// it ran in — both items, since they were to share one forward — and the
// other take serves its two untouched; Drain still joins everything and
// no worker is left counted busy.
func TestBatcherPanicFailsItsChunkOnly(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	var panicked atomic.Bool
	b := NewBatcher(BatcherOptions{
		MaxBatch: 64, QueueCap: 8, Workers: 2,
		ForwardHook: meetHook(2, func(string) {
			if panicked.CompareAndSwap(false, true) {
				panic("chaos: injected worker crash")
			}
		}),
	}, nil, met)
	items := submit(t, b, "k", qm, imgs[:4])
	drain(t, b)
	await(t, items)
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
				t.Fatalf("item of the panicked take: out=%v err=%v, want the converted panic", it.Out, it.Err)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d takes failed, want exactly the one the panic ran in", failed)
	}
	if got := met.Panics.Value(); got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.busy != 0 || b.workers != 0 {
		t.Fatalf("%d workers (%d busy) left after the drain", b.workers, b.busy)
	}
}
