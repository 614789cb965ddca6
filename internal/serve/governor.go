package serve

import (
	"sync"
	"time"

	"quq/internal/chaos"
)

// GovernorOptions holds the one thing a caller may pin about admission
// control. See docs/TUNING.md for the operator view.
type GovernorOptions struct {
	// Clock times every forward the estimate is made of. Defaults to
	// chaos.Real; tests and the chaos harness inject a *chaos.Fake so
	// shed decisions replay deterministically.
	Clock chaos.Clock
}

// Governor is the batcher's admission estimator: it keeps an EWMA of the
// per-image service time of the forwards the workers run, timed on an
// injectable clock, and from it estimates how long a new arrival would
// wait before a worker starts it. It schedules nothing; the batcher's
// take rule does. All methods are safe for concurrent use.
type Governor struct {
	opts GovernorOptions

	mu          sync.Mutex
	poolWorkers int // batcher worker-pool size, bound at construction
	ewmaPerImg  time.Duration
}

// NewGovernor builds a governor. The batcher binds its worker-pool size
// via bind before traffic flows.
func NewGovernor(opts GovernorOptions) *Governor {
	if opts.Clock == nil {
		opts.Clock = chaos.Real
	}
	return &Governor{opts: opts, poolWorkers: 1}
}

// bind wires the batcher's defaulted pool size into the governor.
func (g *Governor) bind(poolWorkers int) {
	g.mu.Lock()
	g.poolWorkers = poolWorkers
	g.mu.Unlock()
}

// NoteService records one forward's wall time (by the governor's clock)
// over the images it ran, updating the per-image service-time estimate.
func (g *Governor) NoteService(images int, elapsed time.Duration) {
	if images <= 0 || elapsed < 0 {
		return
	}
	per := elapsed / time.Duration(images)
	g.mu.Lock()
	if g.ewmaPerImg == 0 {
		g.ewmaPerImg = per
	} else {
		// EWMA with alpha = 1/2: cheap, integer-exact, quick to track.
		g.ewmaPerImg = (g.ewmaPerImg + per) / 2
	}
	g.mu.Unlock()
}

// EstimatedWait estimates how long a new arrival would wait before the
// worker pool even starts it: queued images ahead of it, times the
// per-image service estimate, divided across the pool. Zero until the
// first forward completes (no estimate — never shed blind).
func (g *Governor) EstimatedWait(queued int) time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	if queued <= 0 || g.ewmaPerImg == 0 {
		return 0
	}
	return g.ewmaPerImg * time.Duration(queued) / time.Duration(g.poolWorkers)
}

// clock exposes the governor's time source to the batcher.
func (g *Governor) clock() chaos.Clock { return g.opts.Clock }
