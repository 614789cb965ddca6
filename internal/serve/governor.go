package serve

import (
	"sync"
	"time"

	"quq/internal/chaos"
)

// GovernorOptions tunes the occupancy-adaptive scheduler. The governor
// re-splits one fixed core budget between inter-request batching and
// intra-op GEMM parallelism: at low occupancy it dispatches batches
// immediately (no linger) and grants each batch up to MaxIntraOp
// workers; under load it shrinks back to MinIntraOp and lets the linger
// window build wide batches. See docs/TUNING.md for the operator view.
type GovernorOptions struct {
	// Window is the sliding occupancy window the governor averages over
	// when deciding to raise the per-batch worker budget. Zero or
	// negative disables adaptation entirely: the batcher keeps its
	// configured linger and a fixed MinIntraOp worker budget (the
	// pre-governor static split). Admission control (latency budgets)
	// works in both modes.
	Window time.Duration
	// MinIntraOp is the per-batch intra-op worker floor the governor
	// shrinks to under load (default 1 — serial kernels, all cores to
	// inter-request fan-out).
	MinIntraOp int
	// MaxIntraOp is the per-batch intra-op worker ceiling granted at low
	// occupancy (default MinIntraOp — no raising). Each dispatched batch
	// contributes MaxIntraOp-1 extra workers to the tensor pool while the
	// governor is in the low-occupancy regime.
	MaxIntraOp int
	// Clock paces and timestamps every governor decision. Defaults to
	// chaos.Real; tests and the chaos harness inject a *chaos.Fake so
	// occupancy traces and shed decisions replay deterministically.
	Clock chaos.Clock
}

func (o *GovernorOptions) defaults() {
	if o.MinIntraOp < 1 {
		o.MinIntraOp = 1
	}
	if o.MaxIntraOp < o.MinIntraOp {
		o.MaxIntraOp = o.MinIntraOp
	}
	if o.Clock == nil {
		o.Clock = chaos.Real
	}
}

// The control law's occupancy thresholds (images per dispatched batch /
// MaxBatch); docs/TUNING.md quotes them.
const (
	// lowOccupancy is the window-average occupancy at or below which the
	// governor enters the low-occupancy regime: immediate dispatch,
	// MaxIntraOp workers.
	lowOccupancy = 0.25
	// highOccupancy is the instantaneous occupancy at or above which the
	// governor drops to the load regime: full linger batching, MinIntraOp
	// workers. Shrinking keys off the latest batch, not the window
	// average, so one full batch reacts instantly.
	highOccupancy = 0.5
)

// govSample is one dispatch observation inside the sliding window.
type govSample struct {
	at    time.Time
	occ   float64 // images / MaxBatch at dispatch
	depth int     // queued images at dispatch
}

// Governor is the occupancy-adaptive core-budget scheduler. It observes
// every batch dispatch (occupancy, queue depth) and batch completion
// (service time) through the injectable clock, and from those decides
// two things the batcher reads on its hot path: how many intra-op
// workers the next batch may grant, and whether a submit should
// dispatch immediately instead of waiting out the linger. It also owns
// the per-image service-time estimate behind latency-budget admission
// control. All methods are safe for concurrent use; decisions are pure
// functions of the recorded samples and the clock, so a fake clock
// makes every transition deterministic.
type Governor struct {
	opts GovernorOptions
	met  *Metrics

	mu          sync.Mutex
	maxBatch    int // bound by the batcher at construction
	poolWorkers int // batcher worker-pool size, for wait estimates
	samples     []govSample
	workers     int  // current per-batch intra-op allocation
	immediate   bool // low-occupancy regime: dispatch without linger
	ewmaPerImg  time.Duration
}

// NewGovernor builds a governor; met may be nil. The batcher binds its
// MaxBatch and worker-pool size via bind before traffic flows.
func NewGovernor(opts GovernorOptions, met *Metrics) *Governor {
	opts.defaults()
	g := &Governor{opts: opts, met: met, maxBatch: 8, poolWorkers: 1}
	g.workers = opts.MinIntraOp
	if g.enabled() {
		// An idle server starts in the low-occupancy regime: the first
		// sparse request gets immediate dispatch and the full worker
		// ceiling.
		g.workers = opts.MaxIntraOp
		g.immediate = true
	}
	if met != nil {
		met.IntraopWorkers.Set(int64(g.workers))
	}
	return g
}

// enabled reports whether adaptation is on (Window > 0). A disabled
// governor still tracks service times for admission control.
func (g *Governor) enabled() bool { return g.opts.Window > 0 }

// bind wires the batcher's defaulted geometry into the governor.
func (g *Governor) bind(maxBatch, poolWorkers int) {
	g.mu.Lock()
	g.maxBatch = maxBatch
	g.poolWorkers = poolWorkers
	g.mu.Unlock()
}

// NoteBatch records one dispatch (size images, depth queued at dispatch)
// and re-decides the operating point. The batcher calls it at the top of
// every batch run, before any forward, so the decision governs the very
// batch that triggered it.
func (g *Governor) NoteBatch(size, depth int) {
	now := g.opts.Clock.Now()
	g.mu.Lock()
	occ := float64(size) / float64(g.maxBatch)
	g.samples = append(g.samples, govSample{at: now, occ: occ, depth: depth})
	g.decideLocked(now)
	workers := g.workers
	g.mu.Unlock()
	if g.met != nil {
		g.met.Occupancy.Observe(occ)
		g.met.IntraopWorkers.Set(int64(workers))
	}
}

// NoteService records one completed batch's wall time (by the governor's
// clock), updating the per-image service-time estimate admission control
// divides the queue depth by.
func (g *Governor) NoteService(images int, elapsed time.Duration) {
	if images <= 0 || elapsed < 0 {
		return
	}
	per := elapsed / time.Duration(images)
	g.mu.Lock()
	if g.ewmaPerImg == 0 {
		g.ewmaPerImg = per
	} else {
		// EWMA with alpha = 1/2: cheap, integer-exact, and quick to track
		// regime changes.
		g.ewmaPerImg = (g.ewmaPerImg + per) / 2
	}
	g.mu.Unlock()
}

// decideLocked prunes the window and picks the operating point. Caller
// holds g.mu. The control law is asymmetric: shrinking keys off the
// latest sample (one full batch drops the worker budget instantly, so a
// burst never fights wide grants), raising requires the whole window
// average to sit at or below lowOccupancy with a shallow queue.
func (g *Governor) decideLocked(now time.Time) {
	if !g.enabled() {
		g.workers = g.opts.MinIntraOp
		g.immediate = false
		return
	}
	cutoff := now.Add(-g.opts.Window)
	keep := g.samples[:0]
	for _, s := range g.samples {
		if !s.at.Before(cutoff) {
			keep = append(keep, s)
		}
	}
	g.samples = keep
	if len(g.samples) == 0 {
		// Idle long enough that the window emptied: optimize for the next
		// sparse arrival.
		g.workers = g.opts.MaxIntraOp
		g.immediate = true
		return
	}
	latest := g.samples[len(g.samples)-1]
	sum := 0.0
	for _, s := range g.samples {
		sum += s.occ
	}
	avg := sum / float64(len(g.samples))
	switch {
	case latest.occ >= highOccupancy || latest.depth > g.maxBatch:
		g.workers = g.opts.MinIntraOp
		g.immediate = false
	case avg <= lowOccupancy && latest.depth <= g.maxBatch:
		g.workers = g.opts.MaxIntraOp
		g.immediate = true
	}
	// Between the thresholds: hysteresis — keep the current point.
}

// BatchWorkers returns the intra-op worker allocation for the batch
// being dispatched. Reads re-run the decision so a governor that sat
// idle past its window snaps back to the wide low-occupancy point
// before the next batch runs, not one batch later.
func (g *Governor) BatchWorkers() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.decideLocked(g.opts.Clock.Now())
	return g.workers
}

// ImmediateDispatch reports whether the governor is in the
// low-occupancy regime, where a submit flushes its batch at the end of
// the call instead of waiting out the linger. Like BatchWorkers it
// re-decides first, so the first submit after an idle stretch gets
// immediate dispatch.
func (g *Governor) ImmediateDispatch() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.decideLocked(g.opts.Clock.Now())
	return g.immediate
}

// EstimatedWait estimates how long a new arrival would wait before the
// worker pool even starts it: queued images ahead of it, times the
// per-image service estimate, divided across the pool. Zero until the
// first batch completes (no estimate — never shed blind).
func (g *Governor) EstimatedWait(queued int) time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	if queued <= 0 || g.ewmaPerImg == 0 {
		return 0
	}
	return g.ewmaPerImg * time.Duration(queued) / time.Duration(g.poolWorkers)
}

// clock exposes the governor's time source to the batcher (service
// timing must use the same clock the decisions replay under).
func (g *Governor) clock() chaos.Clock { return g.opts.Clock }
