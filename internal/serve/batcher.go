package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"quq/internal/ptq"
	"quq/internal/tensor"
)

// Batcher errors, mapped by the HTTP layer to 429 and 503.
var (
	ErrQueueFull = errors.New("serve: request queue full")
	ErrDraining  = errors.New("serve: server is draining")
	// ErrOverBudget is deadline-aware load shedding: admission control
	// estimated the request would wait longer than its latency budget
	// before even starting, so it is refused up front (429) instead of
	// sitting in the queue only to miss its deadline anyway.
	ErrOverBudget = errors.New("serve: estimated queue wait exceeds the latency budget; request shed")
)

// BatcherOptions tunes the micro-batching scheduler.
type BatcherOptions struct {
	// MaxBatch is how many images the worker pool stacks at once: one
	// take holds at most ⌈MaxBatch / Workers⌉ of them (default 8).
	MaxBatch int
	// QueueCap bounds admitted-but-unfinished images across all keys;
	// beyond it Submit fails with ErrQueueFull (default 256).
	QueueCap int
	// Workers caps the forward-pass workers (default GOMAXPROCS).
	Workers int
	// ForwardHook, when set, runs once for every image about to be
	// forwarded, with the item's registry key. It is the chaos layer's worker seam: a hook
	// that stalls simulates a slow worker, a hook that panics exercises
	// the panic-to-error conversion. Not for production use.
	ForwardHook func(key string)
	// LatencyBudget is the default per-request latency budget behind
	// admission control: a submit whose estimated queue wait already
	// exceeds it is shed with ErrOverBudget before taking a queue slot.
	// Zero disables shedding; SubmitBudget overrides it per request.
	LatencyBudget time.Duration
}

func (o *BatcherOptions) defaults() {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Item is one admitted image travelling through the scheduler. The
// submitter waits on Done; afterwards exactly one of Out and Err is set.
type Item struct {
	img     *tensor.Tensor
	ctx     context.Context     // the submitter's context
	stop    func() bool         // cancels the context.AfterFunc watcher
	key     string              // registry key, for ForwardHook
	qm      *ptq.QuantizedModel // the model it was admitted for; takes group by it
	waiting bool                // in the FIFO, not yet taken (guarded by Batcher.mu)

	Out  *tensor.Tensor
	Err  error
	Done chan struct{}
}

// Batcher runs admitted images on a work-conserving worker pool: one
// FIFO holds every waiting item, and a free worker takes the oldest
// item's model with as many of that model's waiting items as the take
// rule allows (takeLocked), as one stacked forward. Nothing waits for
// company: a request coalesces only with what queued behind a busy pool.
// All methods are safe for concurrent use.
type Batcher struct {
	opts BatcherOptions
	met  *Metrics
	gov  *Governor
	take int // ⌈MaxBatch / Workers⌉: the most images one take stacks

	mu       sync.Mutex
	queued   int     // admitted and not yet finished
	fifo     []*Item // admitted and not yet taken, oldest first
	workers  int     // worker goroutines alive
	busy     int     // workers inside a forward
	draining bool
	wg       sync.WaitGroup
}

// NewBatcher builds a scheduler. gov is the admission estimator (nil
// builds one on the real clock). met may be nil.
func NewBatcher(opts BatcherOptions, gov *Governor, met *Metrics) *Batcher {
	opts.defaults()
	if gov == nil {
		gov = NewGovernor(GovernorOptions{})
	}
	gov.bind(opts.Workers)
	return &Batcher{
		opts: opts,
		met:  met,
		gov:  gov,
		take: (opts.MaxBatch + opts.Workers - 1) / opts.Workers,
	}
}

// Submit admits images for batched inference on qm. It returns one Item
// per image (index-aligned) to wait on, or ErrQueueFull / ErrDraining
// without admitting anything — admission is all-or-nothing so a
// multi-image request can never deadlock half-queued.
//
// ctx is the submitter's context and must be non-nil (the HTTP layer
// passes the request's): if it is cancelled while an item is still
// waiting (not yet taken by a worker), the item finishes immediately
// with the context's error and releases its QueueCap slot — an
// abandoned client must not hold admission capacity until a worker
// frees up. Items already taken complete normally in the background.
func (b *Batcher) Submit(ctx context.Context, key string, qm *ptq.QuantizedModel, images []*tensor.Tensor) ([]*Item, error) {
	return b.SubmitBudget(ctx, key, qm, images, 0)
}

// SubmitBudget is Submit with an explicit per-request latency budget:
// if admission control estimates the request would wait longer than
// budget before the worker pool even starts it, it is shed with
// ErrOverBudget — before taking a queue slot, not after missing its
// deadline inside one. budget <= 0 falls back to the configured
// BatcherOptions.LatencyBudget; zero for both disables shedding. A
// submitter context deadline tighter than the budget tightens it
// further.
func (b *Batcher) SubmitBudget(ctx context.Context, key string, qm *ptq.QuantizedModel, images []*tensor.Tensor, budget time.Duration) ([]*Item, error) {
	if ctx == nil {
		// Mirroring http.NewRequestWithContext: a nil context is a
		// programming error at the call site, not a runtime condition to
		// paper over with a Background that would detach the work from
		// every deadline.
		//quq:panic-ok API-misuse guard; a nil context is a call-site bug, not a runtime condition
		panic("serve: Submit called with nil context")
	}
	if len(images) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if budget <= 0 {
		budget = b.opts.LatencyBudget
	}
	if dl, ok := ctx.Deadline(); ok {
		if remaining := time.Until(dl); budget <= 0 || remaining < budget {
			budget = remaining
		}
	}
	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		return nil, ErrDraining
	}
	if budget > 0 && b.gov.EstimatedWait(b.queued) > budget {
		b.mu.Unlock()
		if b.met != nil {
			b.met.Shed.Inc()
		}
		return nil, ErrOverBudget
	}
	if b.queued+len(images) > b.opts.QueueCap {
		b.mu.Unlock()
		if b.met != nil {
			b.met.Rejected.Inc()
		}
		return nil, ErrQueueFull
	}
	b.queued += len(images)
	if b.met != nil {
		b.met.QueueDepth.Set(int64(b.queued))
	}
	items := make([]*Item, len(images))
	for i, img := range images {
		it := &Item{img: img, ctx: ctx, key: key, qm: qm, waiting: true, Done: make(chan struct{})}
		items[i] = it
		// The abandonment watcher is registered under b.mu before any
		// worker can take the item, so it.stop is visible to whichever
		// path finishes it. AfterFunc always runs its callback on a fresh
		// goroutine, so abandon's own b.mu acquisition cannot deadlock
		// here even for an already-expired context.
		it.stop = context.AfterFunc(ctx, func() { b.abandon(it) })
		b.fifo = append(b.fifo, it)
	}
	// Start a worker for every waiting item no started-but-not-yet-taking
	// worker will cover, up to the pool size. A worker exits once the
	// FIFO is empty, so an idle batcher holds no goroutine.
	start := 0
	for b.workers < b.opts.Workers && b.workers-b.busy < len(b.fifo) {
		b.workers++
		start++
	}
	b.wg.Add(start)
	b.mu.Unlock()
	// Started after the unlock: a worker's first act is to take b.mu, and
	// one started under it could only wake, contend and sleep again.
	for ; start > 0; start-- {
		go b.work()
	}
	return items, nil
}

// abandon handles a submitter whose context expired: a still-waiting
// item leaves the FIFO and is finished with the context's error,
// releasing its queue slot right away. A taken item is left alone — its
// worker observes the same context before the forward pass and
// short-circuits there.
func (b *Batcher) abandon(it *Item) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !it.waiting {
		return
	}
	b.fifo = slices.DeleteFunc(b.fifo, func(o *Item) bool { return o == it })
	it.waiting = false
	it.Err = it.ctx.Err()
	if b.met != nil {
		b.met.Abandoned.Inc()
	}
	b.finishLocked(it)
}

// work is one worker of the pool: it takes from the FIFO and runs each
// take as one stacked forward until the FIFO is empty, then exits.
//
// Ordering matters twice. The governor observes the service time before
// any submitter of the take is woken, so a caller whose Await has
// returned sees an estimate that already reflects its own forward — what
// lets the chaos harness replay shed decisions byte-identically. And the
// worker counts as free again before it wakes them: a closed-loop client
// resubmits the moment it wakes, and a worker still counted busy then
// makes the next take stack two clients' singles while a core idles.
func (b *Batcher) work() {
	defer b.wg.Done()
	clk := b.gov.clock()
	b.mu.Lock()
	for len(b.fifo) > 0 {
		chunk := b.takeLocked()
		b.busy++
		b.mu.Unlock()
		if b.met != nil {
			b.met.BatchSize.Observe(float64(len(chunk)))
			b.met.Occupancy.Observe(float64(len(chunk)) / float64(b.take))
		}
		start := clk.Now()
		ran := b.runChunk(chunk)
		b.gov.NoteService(ran, clk.Now().Sub(start))
		b.mu.Lock()
		b.busy--
		for _, it := range chunk {
			b.finishLocked(it)
		}
	}
	b.workers--
	b.mu.Unlock()
}

// takeLocked removes the next take from the FIFO. Caller holds b.mu and
// is a worker not counted busy. The take is the oldest waiting item's
// model and the first n of that model's q waiting items, in FIFO order,
// with n = min(q, ⌈q / f⌉, ⌈MaxBatch / Workers⌉) and f the workers not
// inside a forward, this one included. The ⌈q / f⌉ term spreads a lone
// request over the idle workers (a 4-image request on two of them runs
// as two 2-image forwards); behind a busy pool the waiting items of one
// model coalesce up to the cap. Items group by model, not by key string:
// a key whose model was replaced in place (Registry.InstallSnapshot)
// never stacks an item onto a model it was not admitted for.
func (b *Batcher) takeLocked() []*Item {
	qm := b.fifo[0].qm
	q := 0
	for _, it := range b.fifo {
		if it.qm == qm {
			q++
		}
	}
	free := b.opts.Workers - b.busy
	n := min(q, (q+free-1)/free, b.take)
	chunk := make([]*Item, 0, n)
	kept := b.fifo[:0]
	for _, it := range b.fifo {
		if it.qm == qm && len(chunk) < n {
			it.waiting = false
			chunk = append(chunk, it)
		} else {
			kept = append(kept, it)
		}
	}
	clear(b.fifo[len(kept):])
	b.fifo = kept
	return chunk
}

// runChunk runs one take as one stacked forward and reports how many
// images it ran. Item by item, in order: an item whose submitter gave up
// after the take is finished with its context error and never stacked,
// so it pays for no forward; ForwardHook runs for each live item. A panic
// in a hook or in the forward is converted to the error of every item of
// this take that had no outcome yet, instead of killing the server;
// other takes are untouched.
func (b *Batcher) runChunk(chunk []*Item) int {
	live := make([]*Item, 0, len(chunk))
	images := make([]*tensor.Tensor, 0, len(chunk))
	defer func() {
		if rec := recover(); rec != nil {
			err := fmt.Errorf("serve: forward pass panicked: %v", rec)
			for _, it := range chunk {
				if it.Err == nil {
					it.Err = err
				}
			}
			if b.met != nil {
				b.met.Panics.Inc()
			}
		}
	}()
	for _, it := range chunk {
		if err := it.ctx.Err(); err != nil {
			it.Err = err
			if b.met != nil {
				b.met.Abandoned.Inc()
			}
			continue
		}
		if b.opts.ForwardHook != nil {
			b.opts.ForwardHook(it.key)
		}
		live = append(live, it)
		images = append(images, it.img)
	}
	if len(live) == 0 {
		return 0
	}
	// One stacked forward on this worker's goroutine.
	for i, out := range chunk[0].qm.ForwardBatch(images, 1) {
		live[i].Out = out
	}
	return len(live)
}

// finishLocked finishes an item under b.mu: slot released, watcher
// stopped, submitter woken. An item is finished by abandon while it
// waits or by the worker that took it, never both, so Done closes
// exactly once.
func (b *Batcher) finishLocked(it *Item) {
	b.queued--
	if b.met != nil {
		b.met.QueueDepth.Set(int64(b.queued))
		b.met.Images.Inc()
	}
	if it.stop != nil {
		it.stop()
	}
	close(it.Done)
}

// Await blocks until every item is finished or ctx expires. On timeout
// the in-flight work still completes in the background (its queue slots
// are released by the workers); only the caller gives up.
func Await(ctx context.Context, items []*Item) error {
	for _, it := range items {
		select {
		case <-it.Done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Drain stops admission and waits for every admitted item to finish or
// ctx to expire. The workers run the FIFO dry and exit.
func (b *Batcher) Drain(ctx context.Context) error {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()

	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
