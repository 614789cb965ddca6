package serve

import (
	"runtime"
	"sync"
	"time"

	"quq/internal/chaos"
)

// GovernorOptions holds the two things a caller may pin about the
// occupancy-adaptive scheduler; the control law itself (window,
// thresholds, worker floor) is fixed. See docs/TUNING.md for the
// operator view.
type GovernorOptions struct {
	// MaxIntraOp is the per-batch intra-op worker ceiling granted at low
	// occupancy (default GOMAXPROCS; the chaos harness and tests pin a
	// machine-independent value). Each dispatched batch contributes
	// MaxIntraOp-1 extra workers to the tensor pool while the governor is
	// in the low-occupancy regime; under load every batch runs on one.
	MaxIntraOp int
	// Clock paces and timestamps every governor decision. Defaults to
	// chaos.Real; tests and the chaos harness inject a *chaos.Fake so
	// occupancy traces and shed decisions replay deterministically.
	Clock chaos.Clock
}

func (o *GovernorOptions) defaults() {
	if o.MaxIntraOp < 1 {
		o.MaxIntraOp = runtime.GOMAXPROCS(0)
	}
	if o.Clock == nil {
		o.Clock = chaos.Real
	}
}

// The control law's constants; docs/TUNING.md quotes them. Occupancy is
// images per dispatched batch / MaxBatch, and the two thresholds are
// held as reciprocals so every comparison stays in exact integers.
const (
	// occupancyWindow is the sliding window the governor averages
	// occupancy over before returning to the low-occupancy regime.
	occupancyWindow = 500 * time.Millisecond
	// lowOccupancyInv: a window-average occupancy at or below 1/4 enters
	// the low-occupancy regime — immediate dispatch, MaxIntraOp workers.
	lowOccupancyInv = 4
	// highOccupancyInv: an instantaneous occupancy at or above 1/2 drops
	// to the load regime — linger batching, one worker per batch.
	// Shrinking keys off the latest batch, not the window average, so one
	// full batch reacts instantly.
	highOccupancyInv = 2
)

// govSample is one dispatch observation inside the sliding window.
type govSample struct {
	at    time.Time
	size  int // images in the batch
	depth int // queued images at dispatch
}

// Governor is the occupancy-adaptive core-budget scheduler, the
// batcher's one dispatch policy. It observes every batch dispatch
// (occupancy, queue depth) and batch completion (service time) through
// the injectable clock, and from those decides two things the batcher
// reads on its hot path: how many intra-op workers the next batch may
// grant, and whether a submit should dispatch immediately instead of
// waiting out the linger. It also owns the per-image service-time
// estimate behind latency-budget admission control. All methods are
// safe for concurrent use; decisions are pure functions of the recorded
// samples and the clock, so a fake clock makes every transition
// deterministic.
type Governor struct {
	opts GovernorOptions
	met  *Metrics

	mu          sync.Mutex
	maxBatch    int // bound by the batcher at construction
	poolWorkers int // batcher worker-pool size, for wait estimates
	// samples is the window in arrival (hence time) order, images the sum
	// of their sizes: aged samples leave from the head, so a decision
	// costs what aged since the last one, not a rescan.
	samples    []govSample
	images     int
	lowOcc     bool // operating point: low-occupancy regime (else load regime)
	ewmaPerImg time.Duration
}

// NewGovernor builds a governor; met may be nil. The batcher binds its
// MaxBatch and worker-pool size via bind before traffic flows. An idle
// server starts in the low-occupancy regime: the first sparse request
// gets immediate dispatch and the full worker ceiling.
func NewGovernor(opts GovernorOptions, met *Metrics) *Governor {
	opts.defaults()
	g := &Governor{opts: opts, met: met, maxBatch: 8, poolWorkers: 1, lowOcc: true}
	if met != nil {
		met.IntraopWorkers.Set(int64(opts.MaxIntraOp))
	}
	return g
}

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
	g.mu.Lock()
	// The clock is read under g.mu so samples are appended in time order.
	now := g.opts.Clock.Now()
	g.samples = append(g.samples, govSample{at: now, size: size, depth: depth})
	g.images += size
	g.decideLocked(now)
	occ := float64(size) / float64(g.maxBatch)
	workers := g.workersLocked()
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

// decideLocked ages the window and picks the operating point. Caller
// holds g.mu. The control law is asymmetric: shrinking keys off the
// latest sample (one full batch drops the worker budget instantly, so a
// burst never fights wide grants), raising requires the whole window
// average to sit at or below the low threshold with a shallow queue.
func (g *Governor) decideLocked(now time.Time) {
	cutoff := now.Add(-occupancyWindow)
	aged := 0
	for aged < len(g.samples) && g.samples[aged].at.Before(cutoff) {
		g.images -= g.samples[aged].size
		aged++
	}
	g.samples = g.samples[aged:]
	if len(g.samples) == 0 {
		// Idle long enough that the window emptied: optimize for the next
		// sparse arrival.
		g.lowOcc = true
		return
	}
	latest := g.samples[len(g.samples)-1]
	switch {
	case highOccupancyInv*latest.size >= g.maxBatch || latest.depth > g.maxBatch:
		g.lowOcc = false
	case lowOccupancyInv*g.images <= len(g.samples)*g.maxBatch:
		g.lowOcc = true
	}
	// Between the thresholds: hysteresis — keep the current point.
}

// workersLocked is the current point's per-batch worker allocation.
// Caller holds g.mu.
func (g *Governor) workersLocked() int {
	if g.lowOcc {
		return g.opts.MaxIntraOp
	}
	return 1
}

// BatchWorkers returns the intra-op worker allocation for the batch
// being dispatched. Reads re-run the decision so a governor that sat
// idle past its window snaps back to the wide low-occupancy point
// before the next batch runs, not one batch later.
func (g *Governor) BatchWorkers() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.decideLocked(g.opts.Clock.Now())
	return g.workersLocked()
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
	return g.lowOcc
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
