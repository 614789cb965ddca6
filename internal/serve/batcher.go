package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
	// MaxBatch is the dispatch threshold: a pending batch is flushed as
	// soon as it holds this many images (default 8).
	MaxBatch int
	// Linger is how long the first image of an underfull batch may wait
	// for company in the load regime before the batch is flushed anyway
	// (default 2ms). At low occupancy the governor dispatches at submit
	// and no batch waits for it.
	Linger time.Duration
	// QueueCap bounds admitted-but-unfinished images across all keys;
	// beyond it Submit fails with ErrQueueFull (default 256).
	QueueCap int
	// Workers sizes the forward-pass worker pool (default GOMAXPROCS).
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
	if o.Linger <= 0 {
		o.Linger = 2 * time.Millisecond
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
	img  *tensor.Tensor
	ctx  context.Context // the submitter's context
	stop func() bool     // cancels the context.AfterFunc watcher
	p    *pending        // batch holding the item while undispatched
	done bool            // finished (guarded by Batcher.mu)

	Out  *tensor.Tensor
	Err  error
	Done chan struct{}
}

// pending is the open batch for one model key.
type pending struct {
	key        string
	qm         *ptq.QuantizedModel
	items      []*Item
	linger     *time.Timer // flushes the batch if nothing else has by then
	dispatched bool        // detached from Batcher.pend and handed to a worker
}

// Batcher coalesces admitted images into per-model micro-batches and
// runs them on a bounded worker pool. All methods are safe for
// concurrent use.
type Batcher struct {
	opts   BatcherOptions
	met    *Metrics
	gov    *Governor
	tokens chan struct{} // worker-pool semaphore

	mu       sync.Mutex
	queued   int // admitted and not yet finished
	pend     map[string]*pending
	draining bool
	wg       sync.WaitGroup
}

// NewBatcher builds a scheduler. gov is the occupancy-adaptive governor
// that decides when a batch leaves and on how many workers (nil builds
// one with default options). met may be nil.
func NewBatcher(opts BatcherOptions, gov *Governor, met *Metrics) *Batcher {
	opts.defaults()
	if gov == nil {
		gov = NewGovernor(GovernorOptions{}, met)
	}
	gov.bind(opts.MaxBatch, opts.Workers)
	return &Batcher{
		opts:   opts,
		met:    met,
		gov:    gov,
		tokens: make(chan struct{}, opts.Workers),
		pend:   make(map[string]*pending),
	}
}

// Submit admits images for batched inference on qm, coalescing them with
// other requests for the same key. It returns one Item per image (index-
// aligned) to wait on, or ErrQueueFull / ErrDraining without admitting
// anything — admission is all-or-nothing so a multi-image request can
// never deadlock half-queued.
//
// ctx is the submitter's context and must be non-nil (the HTTP layer
// passes the request's): if it is cancelled while an item is still
// queued (not yet handed to a worker), the item finishes immediately
// with the context's error and releases its QueueCap slot — an
// abandoned client must not hold admission capacity until dispatch.
// Items already dispatched complete normally in the background.
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
		it := &Item{img: img, ctx: ctx, Done: make(chan struct{})}
		items[i] = it
		// The abandonment watcher is registered under b.mu before the
		// item can be flushed, so it.stop is visible to whichever path
		// finishes the item. AfterFunc always runs its callback on a
		// fresh goroutine, so abandon's own b.mu acquisition cannot
		// deadlock here even for an already-expired context.
		it.stop = context.AfterFunc(ctx, func() { b.abandon(it) })
		p := b.pend[key]
		if p == nil {
			p = &pending{key: key, qm: qm}
			b.pend[key] = p
			p.linger = time.AfterFunc(b.opts.Linger, func() { b.flushIf(key, p) })
		}
		it.p = p
		p.items = append(p.items, it)
		if len(p.items) >= b.opts.MaxBatch {
			b.flushLocked(p)
		}
	}
	if b.gov.ImmediateDispatch() {
		// Low-occupancy regime: flush at the end of the submit call, after
		// every image of this request has been appended — within-request
		// batching is preserved, only the cross-request linger wait is
		// skipped. A size-triggered flush above leaves b.pend[key] nil, so
		// this is naturally a no-op then.
		if p := b.pend[key]; p != nil && len(p.items) > 0 {
			b.flushLocked(p)
		}
	}
	b.mu.Unlock()
	return items, nil
}

// abandon handles a submitter whose context expired: a still-queued
// item is pulled out of its batch and finished with the context's
// error, releasing its queue slot right away. A dispatched item is left
// alone — its worker observes the same context before the forward pass
// and short-circuits there.
func (b *Batcher) abandon(it *Item) {
	b.mu.Lock()
	if it.done || it.p == nil || it.p.dispatched {
		b.mu.Unlock()
		return
	}
	kept := it.p.items[:0]
	for _, other := range it.p.items {
		if other != it {
			kept = append(kept, other)
		}
	}
	it.p.items = kept
	it.Err = it.ctx.Err()
	if b.met != nil {
		b.met.Abandoned.Inc()
	}
	b.finishLocked(it)
	b.mu.Unlock()
}

// flushIf flushes p if it is still the open batch for key (the linger
// timer may race a size-triggered flush; the pointer comparison
// disambiguates generations).
func (b *Batcher) flushIf(key string, p *pending) {
	b.mu.Lock()
	if b.pend[key] == p {
		b.flushLocked(p)
	}
	b.mu.Unlock()
}

// flushLocked detaches p and dispatches it. Caller holds b.mu. The
// queue depth at dispatch rides along so the governor observes the
// backlog that existed when the batch left the queue.
func (b *Batcher) flushLocked(p *pending) {
	delete(b.pend, p.key)
	p.dispatched = true
	// Most batches leave at submit or on size, long before the linger: a
	// timer left armed would pin p and its items until it fired.
	p.linger.Stop()
	if len(p.items) == 0 {
		return
	}
	b.wg.Add(1)
	go b.run(p, b.queued)
}

// run executes one batch on the worker pool. The batch is cut into
// ptq.BatchChunks' min(len(items), Workers) contiguous chunks; each takes
// one pool token and one goroutine and runs as one stacked forward
// (runChunk), so every weight matrix is streamed once per chunk rather
// than once per image, and total inference parallelism across all
// in-flight batches never exceeds Workers.
//
// Ordering matters for determinism: the governor observes the dispatch
// (NoteBatch) before any forward runs, and the service time
// (NoteService) before any submitter is woken — so a caller whose Await
// has returned is guaranteed to see governor state that already reflects
// its own batch, which is what lets the chaos harness replay occupancy
// traces byte-identically. The service sample counts the images whose
// forward ran, not the batch: an item dropped at the last moment took no
// time, and charging it would make every survivor look cheaper.
func (b *Batcher) run(p *pending, depth int) {
	defer b.wg.Done()
	b.gov.NoteBatch(len(p.items), depth)
	if b.met != nil {
		b.met.BatchSize.Observe(float64(len(p.items)))
	}
	start := b.gov.clock().Now()
	bounds := ptq.BatchChunks(len(p.items), b.opts.Workers)
	var cwg sync.WaitGroup
	var ran atomic.Int64
	for c := 0; c+1 < len(bounds); c++ {
		b.tokens <- struct{}{}
		cwg.Add(1)
		go func(chunk []*Item) {
			defer func() {
				<-b.tokens
				cwg.Done()
			}()
			ran.Add(int64(b.runChunk(p, chunk)))
		}(p.items[bounds[c]:bounds[c+1]])
	}
	cwg.Wait()
	b.gov.NoteService(int(ran.Load()), b.gov.clock().Now().Sub(start))
	for _, it := range p.items {
		b.finish(it)
	}
}

// runChunk runs one chunk of a batch as one stacked forward and reports
// how many images it ran. Item by item, in order: an item whose submitter
// already gave up — it may have disconnected while the chunk waited for
// its pool token — is finished with its context error and never stacked,
// so it pays for no forward; ForwardHook runs for each live item. A panic
// in a hook or in the forward is converted to the error of every item of
// this chunk that had no outcome yet, instead of killing the server; the
// batch's other chunks are untouched.
func (b *Batcher) runChunk(p *pending, chunk []*Item) int {
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
			b.opts.ForwardHook(p.key)
		}
		live = append(live, it)
		images = append(images, it.img)
	}
	if len(live) == 0 {
		return 0
	}
	// One worker: the chunk is one stacked forward on this goroutine.
	for i, out := range p.qm.ForwardBatch(images, 1) {
		live[i].Out = out
	}
	return len(live)
}

// finish releases an item's queue slot and wakes its submitter.
func (b *Batcher) finish(it *Item) {
	b.mu.Lock()
	if it.done {
		// The abandonment path got here first; nothing left to release.
		b.mu.Unlock()
		return
	}
	b.finishLocked(it)
	b.mu.Unlock()
}

// finishLocked marks an item done under b.mu: slot released, watcher
// stopped, submitter woken. Exactly one of finish/abandon reaches it
// per item (the done flag arbitrates), so Done closes exactly once.
func (b *Batcher) finishLocked(it *Item) {
	it.done = true
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

// Drain stops admission, flushes every pending batch immediately, and
// waits for in-flight work to finish or ctx to expire.
func (b *Batcher) Drain(ctx context.Context) error {
	b.mu.Lock()
	b.draining = true
	// Collect open batches first: flushLocked mutates b.pend.
	open := make([]*pending, 0, len(b.pend))
	// Map order is irrelevant: every open batch is flushed.
	for _, p := range b.pend {
		open = append(open, p)
	}
	for _, p := range open {
		b.flushLocked(p)
	}
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
