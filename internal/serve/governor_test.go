package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quq/internal/chaos"
)

// govUnderTest builds a governor on a fake clock with the geometry the
// transition tests assume: a 4-worker ceiling, MaxBatch 8, a 2-worker
// pool (the window is the 500ms constant).
func govUnderTest(met *Metrics) (*Governor, *chaos.Fake) {
	clk := chaos.NewFake()
	g := NewGovernor(GovernorOptions{MaxIntraOp: 4, Clock: clk}, met)
	g.bind(8, 2)
	return g, clk
}

// TestGovernorTransitions drives the control law through fake-clock
// traces: every transition is a pure function of the recorded samples
// and the injected time, so each trace asserts the exact operating
// point after every observation.
func TestGovernorTransitions(t *testing.T) {
	type step struct {
		advance       time.Duration // fake-clock advance before the dispatch
		size, depth   int           // NoteBatch arguments
		wantWorkers   int
		wantImmediate bool
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"sparse traffic stays wide", []step{
			{0, 1, 0, 4, true},
			{50 * time.Millisecond, 2, 1, 4, true},
		}},
		{"full batch shrinks instantly", []step{
			{0, 1, 0, 4, true},
			{50 * time.Millisecond, 8, 0, 1, false},
		}},
		{"deep queue shrinks even at low occupancy", []step{
			{0, 1, 9, 1, false},
		}},
		{"mid occupancy holds the current point from above", []step{
			{0, 3, 0, 4, true}, // 0.375 is between the thresholds: keep wide
		}},
		{"hysteresis from below, then window-average recovery", []step{
			{0, 8, 0, 1, false},                     // full batch: shrink
			{50 * time.Millisecond, 3, 0, 1, false}, // 0.375 between: stay shrunk
			{475 * time.Millisecond, 1, 0, 4, true}, // full-batch sample aged out; avg (0.375+0.125)/2 ≤ 0.25
		}},
		{"window average exactly on the low threshold recovers", []step{
			{0, 8, 0, 1, false},
			{50 * time.Millisecond, 3, 0, 1, false},
			{475 * time.Millisecond, 2, 0, 1, false}, // (3+2)/2 batches = 0.3125: stay shrunk
			{0, 1, 0, 4, true},                       // 4·(3+2+1) = 3 batches · 8: exactly 0.25
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			met := NewMetrics()
			g, clk := govUnderTest(met)
			for i, s := range tc.steps {
				if s.advance > 0 {
					_ = clk.Sleep(context.Background(), s.advance)
				}
				g.NoteBatch(s.size, s.depth)
				if got := g.BatchWorkers(); got != s.wantWorkers {
					t.Fatalf("step %d: BatchWorkers = %d, want %d", i, got, s.wantWorkers)
				}
				if got := g.ImmediateDispatch(); got != s.wantImmediate {
					t.Fatalf("step %d: ImmediateDispatch = %v, want %v", i, got, s.wantImmediate)
				}
				if got := met.IntraopWorkers.Value(); got != int64(s.wantWorkers) {
					t.Fatalf("step %d: intraop gauge = %d, want %d", i, got, s.wantWorkers)
				}
			}
			if got := met.Occupancy.Count(); got != uint64(len(tc.steps)) {
				t.Fatalf("occupancy observations = %d, want %d", got, len(tc.steps))
			}
		})
	}
}

// TestGovernorIdleResetsWide: once the window has fully aged out, a
// read-side decision (the next submit or dispatch) snaps back to the
// wide low-occupancy point without waiting for a batch observation.
func TestGovernorIdleResetsWide(t *testing.T) {
	g, clk := govUnderTest(nil)
	g.NoteBatch(8, 0) // full batch: shrink
	if got := g.BatchWorkers(); got != 1 {
		t.Fatalf("BatchWorkers after full batch = %d, want 1", got)
	}
	_ = clk.Sleep(context.Background(), 750*time.Millisecond) // > window
	if got := g.BatchWorkers(); got != 4 {
		t.Fatalf("BatchWorkers after idle window = %d, want 4", got)
	}
	if !g.ImmediateDispatch() {
		t.Fatal("ImmediateDispatch false after idle window, want true")
	}
}

// TestGovernorEstimatedWait checks the admission-control estimate: an
// integer-exact EWMA (alpha 1/2) of per-image service time, multiplied
// by the queue depth and divided across the worker pool.
func TestGovernorEstimatedWait(t *testing.T) {
	g := NewGovernor(GovernorOptions{Clock: chaos.NewFake()}, nil)
	g.bind(8, 2)
	if got := g.EstimatedWait(10); got != 0 {
		t.Fatalf("estimate before any service = %v, want 0 (never shed blind)", got)
	}
	g.NoteService(4, 40*time.Millisecond) // 10ms/image
	if got := g.EstimatedWait(6); got != 30*time.Millisecond {
		t.Fatalf("estimate = %v, want 30ms (10ms × 6 / 2 workers)", got)
	}
	g.NoteService(2, 4*time.Millisecond) // 2ms/image → EWMA (10+2)/2 = 6ms
	if got := g.EstimatedWait(6); got != 18*time.Millisecond {
		t.Fatalf("estimate after EWMA update = %v, want 18ms", got)
	}
	if got := g.EstimatedWait(0); got != 0 {
		t.Fatalf("estimate for empty queue = %v, want 0", got)
	}
	g.NoteService(0, time.Second) // degenerate observations are ignored
	g.NoteService(3, -time.Second)
	if got := g.EstimatedWait(6); got != 18*time.Millisecond {
		t.Fatalf("estimate moved on degenerate observations: %v", got)
	}
}

// TestBatcherShedsOverBudget proves deadline-aware admission control:
// with a seeded service-time estimate and a backed-up queue, a submit
// whose budget is tighter than the estimated wait is refused with
// ErrOverBudget before taking a queue slot — the queue depth and
// backpressure counters are untouched, only the shed counter moves.
func TestBatcherShedsOverBudget(t *testing.T) {
	qm, imgs := batchModel(t)
	met := NewMetrics()
	clk := chaos.NewFake()
	gov := NewGovernor(GovernorOptions{Clock: clk}, met)
	gate := make(chan struct{})
	var block atomic.Bool
	b := NewBatcher(BatcherOptions{
		MaxBatch: 8, Linger: time.Hour, QueueCap: 64, Workers: 1,
		LatencyBudget: 20 * time.Millisecond,
		ForwardHook: func(string) {
			if block.Load() {
				<-gate
			}
			_ = clk.Sleep(context.Background(), 10*time.Millisecond)
		},
	}, gov, met)
	// Held in the load regime (the forwards advance the clock by far less
	// than the window), so batches leave only by the flushIf calls below.
	holdInLoadRegime(b)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Seed the per-image estimate: one image at 10ms of fake service time.
	items, err := b.Submit(context.Background(), "k", qm, imgs[:1])
	if err != nil {
		t.Fatal(err)
	}
	b.flushIf("k", items[0].p)
	if err := Await(ctx, items); err != nil {
		t.Fatal(err)
	}

	// Jam the single worker and back up four images.
	block.Store(true)
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	stuck, err := b.Submit(context.Background(), "k", qm, imgs[:4])
	if err != nil {
		t.Fatal(err)
	}
	b.flushIf("k", stuck[0].p)

	// Estimated wait is now 10ms × 4 / 1 worker = 40ms > the 20ms budget.
	if _, err := b.Submit(context.Background(), "k", qm, imgs[4:5]); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("Submit over budget: err = %v, want ErrOverBudget", err)
	}
	if got := met.Shed.Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	if got := met.Rejected.Value(); got != 0 {
		t.Fatalf("rejected counter = %d, want 0 (shed is not backpressure)", got)
	}
	if got := met.QueueDepth.Value(); got != 4 {
		t.Fatalf("queue depth = %d, want 4 — a shed request must not occupy a slot", got)
	}

	// A per-request budget wider than the wait is admitted.
	admitted, err := b.SubmitBudget(context.Background(), "k2", qm, imgs[5:6], 100*time.Millisecond)
	if err != nil {
		t.Fatalf("SubmitBudget with a wide budget: %v", err)
	}

	block.Store(false)
	release()
	b.flushIf("k2", admitted[0].p)
	if err := Await(ctx, append(stuck, admitted...)); err != nil {
		t.Fatal(err)
	}
	if err := b.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServeLatencyBudgetHeader exercises the HTTP surface of admission
// control: a request whose X-Quq-Latency-Budget is tighter than the
// estimated queue wait gets 429 with Retry-After, a malformed header
// gets 400, and a shed request never occupies a queue slot.
func TestServeLatencyBudgetHeader(t *testing.T) {
	clk := chaos.NewFake()
	gate := make(chan struct{})
	var block atomic.Bool
	s := New(Config{
		Registry: testRegistryOptions(),
		Batcher: BatcherOptions{
			MaxBatch: 8, QueueCap: 64, Workers: 1,
			ForwardHook: func(string) {
				if block.Load() {
					<-gate
				}
				_ = clk.Sleep(context.Background(), 10*time.Millisecond)
			},
		},
		Governor:       GovernorOptions{Clock: clk},
		RequestTimeout: 60 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()

	flat, _ := flatImages(6)
	classify := func(images [][]float64, header string) (*http.Response, []byte) {
		t.Helper()
		buf, err := json.Marshal(map[string]any{"images": images})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if header != "" {
			req.Header.Set(LatencyBudgetHeader, header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, out.Bytes()
	}

	// Seed the service-time estimate with one unjammed request.
	if resp, body := classify(flat[:1], ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed classify: %d %s", resp.StatusCode, body)
	}

	// Jam the worker and back the queue up with four images.
	block.Store(true)
	stuckDone := make(chan struct{})
	go func() {
		defer close(stuckDone)
		classify(flat[1:5], "")
	}()
	waitFor(t, func() bool { return s.Metrics().QueueDepth.Value() == 4 })

	// Estimated wait 10ms × 4 / 1 worker = 40ms; a 20ms budget sheds.
	resp, body := classify(flat[5:6], "20ms")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget classify: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if got := s.Metrics().Shed.Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	if got := s.Metrics().QueueDepth.Value(); got != 4 {
		t.Fatalf("queue depth = %d after shed, want 4 — no slot taken", got)
	}

	// A malformed budget is the client's mistake, reported as one.
	if resp, body := classify(flat[5:6], "bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed budget: %d %s, want 400", resp.StatusCode, body)
	}

	block.Store(false)
	release()
	<-stuckDone
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedBudgetNeverTouchesTheRegistry: a classify that is going to
// be answered 400 for its X-Quq-Latency-Budget must be rejected before
// the registry sees its key — a never-seen key is not calibrated (the
// BuildHook never runs, no cache miss is counted) and the reply carries
// no digest.
func TestMalformedBudgetNeverTouchesTheRegistry(t *testing.T) {
	var built atomic.Int64
	opts := testRegistryOptions()
	opts.BuildHook = func(Key) error { built.Add(1); return nil }
	s := New(Config{Registry: opts})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	flat, _ := flatImages(1)
	buf, err := json.Marshal(map[string]any{"images": flat, "method": "BaseQ", "bits": 5})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(LatencyBudgetHeader, "soon")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed budget on a never-seen key: %d, want 400", resp.StatusCode)
	}
	if d := resp.Header.Get(DigestHeader); d != "" {
		t.Errorf("rejected request carries %s %q", DigestHeader, d)
	}
	if n := built.Load(); n != 0 {
		t.Errorf("BuildHook ran %d times for a request rejected on its header", n)
	}
	if n := s.Metrics().CacheMisses.Value(); n != 0 {
		t.Errorf("quq_serve_model_cache_misses_total = %d after a rejected request, want 0", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
