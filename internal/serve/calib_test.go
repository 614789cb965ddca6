package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"quq/internal/chaos"
	"quq/internal/ptq"
	"quq/internal/snapstore"
	"quq/internal/testutil"
	"quq/internal/vit"
)

// stepClock is a chaos.Clock whose sleepers wake only when the test
// advances it (chaos.Fake's never block, which makes "before the grace"
// unobservable).
type stepClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters map[chan struct{}]time.Time
}

func newStepClock() *stepClock {
	return &stepClock{now: time.Unix(0, 0), waiters: make(map[chan struct{}]time.Time)}
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) Sleep(ctx context.Context, d time.Duration) error {
	wake := make(chan struct{})
	c.mu.Lock()
	c.waiters[wake] = c.now.Add(d)
	c.mu.Unlock()
	select {
	case <-wake:
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.waiters, wake)
		c.mu.Unlock()
		return ctx.Err()
	}
}

func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	for wake, due := range c.waiters {
		if !due.After(c.now) {
			close(wake)
			delete(c.waiters, wake)
		}
	}
}

func (c *stepClock) sleepers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// standaloneDigest is the oracle's reference side: ptq.Quantize with a
// fresh method over the registry's own base model and calibration set,
// encoded under the key — or the error that encoding fails with.
func standaloneDigest(t *testing.T, r *Registry, key Key) string {
	t.Helper()
	be := r.base(key.Config)
	if be.err != nil {
		t.Fatal(be.err)
	}
	method, ok := newMethod(key.Method)
	if !ok {
		t.Fatalf("no method %q", key.Method)
	}
	qm, err := ptq.Quantize(be.model, method, ptq.CalibOptions{
		Bits: key.Bits, Regime: key.Regime, Images: be.calib, MaxSamplesPerSite: r.opts.MaxSamplesPerSite,
	})
	if err != nil {
		t.Fatal(err)
	}
	return digestOrError(snapstore.Encode(key.String(), qm))
}

func digestOrError(_ []byte, digest string, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return digest
}

// registryDigest builds key through the registry and returns what
// X-Quq-Digest would carry (the registry persists into a snapshot dir, so
// the entry's digest is stamped), or the encode error.
func registryDigest(t *testing.T, r *Registry, key Key) string {
	t.Helper()
	if _, _, err := r.Get(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if d := r.Digest(key); d != "" {
		return d
	}
	return digestOrError(r.Snapshot(key))
}

// TestSharedCalibrationDigestsMatchStandalone is the gate for sharing
// calibration nodes between keys: whatever order siblings arrive in, and
// whether or not the statistics were released and re-collected between
// them, every entry's content address is the one a standalone
// ptq.Quantize of that key produces. The digest covers the weights and
// every quantizer, so equality here is byte equality of the calibrated
// state.
func TestSharedCalibrationDigestsMatchStandalone(t *testing.T) {
	regimes := [2]ptq.Regime{ptq.Partial, ptq.Full}
	type family struct {
		config, method string
		bits           int
	}
	var families []family
	for _, method := range methodNames {
		for _, bits := range []int{4, 6, 8} {
			families = append(families, family{vit.ViTNano.Name, method, bits})
		}
	}
	families = append(families, family{vit.ViTSmall.Name, "QUQ", 6})

	opts := testRegistryOptions()
	opts.MaxSamplesPerSite = 512 // 148 calibrations, under -race: small reservoirs exercise the same code
	opts.Clock = chaos.NewFake() // the grace costs nothing: a release is as soon as the timer goroutine runs
	want := make(map[Key]string)
	ref := NewRegistry(opts, nil)
	for _, f := range families {
		for _, regime := range regimes {
			key := Key{f.config, f.method, f.bits, regime}
			want[key] = standaloneDigest(t, ref, key)
		}
	}

	check := func(t *testing.T, r *Registry, key Key) {
		t.Helper()
		if got := registryDigest(t, r, key); got != want[key] {
			t.Errorf("%s: registry built %s, standalone ptq.Quantize %s", key, got, want[key])
		}
	}
	orders := []struct {
		name string
		run  func(t *testing.T, r *Registry, met *Metrics, f family)
	}{
		{"partial-then-full", func(t *testing.T, r *Registry, _ *Metrics, f family) {
			check(t, r, Key{f.config, f.method, f.bits, ptq.Partial})
			check(t, r, Key{f.config, f.method, f.bits, ptq.Full})
		}},
		{"full-then-partial", func(t *testing.T, r *Registry, _ *Metrics, f family) {
			check(t, r, Key{f.config, f.method, f.bits, ptq.Full})
			check(t, r, Key{f.config, f.method, f.bits, ptq.Partial})
		}},
		{"concurrent", func(t *testing.T, r *Registry, _ *Metrics, f family) {
			var wg sync.WaitGroup
			for _, regime := range regimes {
				wg.Add(1)
				go func(regime ptq.Regime) {
					defer wg.Done()
					if _, _, err := r.Get(context.Background(), Key{f.config, f.method, f.bits, regime}); err != nil {
						t.Error(err)
					}
				}(regime)
			}
			wg.Wait()
			for _, regime := range regimes {
				check(t, r, Key{f.config, f.method, f.bits, regime})
			}
		}},
		{"recollected-between", func(t *testing.T, r *Registry, met *Metrics, f family) {
			// The previous family's release runs on a goroutine; until it
			// has, this family's first key would find the set resident.
			waitFor(t, func() bool { return !r.holdsStats(f.config) })
			before := met.CalibCollects.Value()
			check(t, r, Key{f.config, f.method, f.bits, ptq.Partial})
			waitFor(t, func() bool { return !r.holdsStats(f.config) })
			check(t, r, Key{f.config, f.method, f.bits, ptq.Full})
			if got := met.CalibCollects.Value() - before; got != 2 {
				t.Errorf("%d collections, want 2: the sibling was meant to re-collect", got)
			}
		}},
	}
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			met := NewMetrics()
			ropts := opts
			ropts.SnapshotDir = t.TempDir()
			r := NewRegistry(ropts, met)
			for r.Warming() {
				time.Sleep(time.Millisecond)
			}
			for _, f := range families {
				if f.config != vit.ViTNano.Name && o.name != "concurrent" {
					continue // the larger model once is enough
				}
				o.run(t, r, met, f)
			}
			if err := r.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// sharedKeys is the count tests' key set: 2 configs x 2 bit-widths x 2
// regimes of a cheap method.
func sharedKeys() []Key {
	var keys []Key
	for _, cfg := range []string{vit.ViTNano.Name, vit.ViTSmall.Name} {
		for _, bits := range []int{4, 8} {
			for _, regime := range []ptq.Regime{ptq.Partial, ptq.Full} {
				keys = append(keys, Key{cfg, "BaseQ", bits, regime})
			}
		}
	}
	return keys
}

// TestSharedCalibrationBuildsEachNodeOnce: every key of the set
// requested at once by several clients — some of which have already
// given up — costs one statistics collection per config, one weight pass
// and one GEMM-input pass per (config, method, bits), one remaining-
// sites pass per family that has a Full key, and exactly one BuildHook
// call (one cache miss) per key.
func TestSharedCalibrationBuildsEachNodeOnce(t *testing.T) {
	keys := sharedKeys()
	var mu sync.Mutex
	hooked := make(map[Key]int)
	opts := testRegistryOptions()
	// No build finishes before every hung-up client has given up: a
	// ViT-Nano build can otherwise beat such a client to Get's select,
	// which then picks the ready entry over the dead context.
	gate := make(chan struct{})
	opts.BuildHook = func(k Key) error {
		<-gate
		mu.Lock()
		hooked[k]++
		mu.Unlock()
		return nil
	}
	met := NewMetrics()
	r := NewRegistry(opts, met)

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	const clients = 4
	models := make([][clients]*ptq.QuantizedModel, len(keys))
	var wg, hungUp sync.WaitGroup
	hungUp.Add(len(keys))
	for k, key := range keys {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(k, c int, key Key) {
				defer wg.Done()
				if c == 0 {
					defer hungUp.Done()
					// A client that hung up abandons its wait and nothing else.
					if _, _, err := r.Get(gone, key); !errors.Is(err, context.Canceled) {
						t.Errorf("%s: cancelled Get = %v, want context.Canceled", key, err)
					}
					return
				}
				qm, _, err := r.Get(context.Background(), key)
				if err != nil {
					t.Errorf("%s: %v", key, err)
				}
				models[k][c] = qm
			}(k, c, key)
		}
	}
	hungUp.Wait()
	close(gate)
	wg.Wait()
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	for k, key := range keys {
		for c := 2; c < clients; c++ {
			if models[k][c] != models[k][1] {
				t.Errorf("%s: clients got different model instances", key)
			}
		}
		if hooked[key] != 1 {
			t.Errorf("%s: BuildHook ran %d times, want 1", key, hooked[key])
		}
	}
	for k := 0; k < len(keys); k += 2 { // keys come in (partial, full) pairs
		p, f := models[k][1], models[k+1][1]
		if p == nil || f == nil {
			continue
		}
		if p.Model != f.Model {
			t.Errorf("%s and %s hold separate weight clones", keys[k], keys[k+1])
		}
		if len(p.Acts) >= len(f.Acts) {
			t.Errorf("%s quantizes %d sites, %s %d: full must add to partial", keys[k], len(p.Acts), keys[k+1], len(f.Acts))
		}
	}
	const configs, families = 2, 4
	if got := met.CalibCollects.Value(); got != configs {
		t.Errorf("%d statistics collections for %d configs", got, configs)
	}
	for which, name := range [numNodes]string{"weight", "GEMM-input", "remaining-site"} {
		if got := r.nodeRuns[which].Load(); got != families {
			t.Errorf("%d %s passes for %d (config, method, bits) families", got, name, families)
		}
	}
	if got := met.CacheMisses.Value(); got != uint64(len(keys)) {
		t.Errorf("%d cache misses for %d keys", got, len(keys))
	}
	if got := met.CalibStatsBytes.Value(); got != 0 {
		t.Errorf("%d bytes of statistics resident after Drain", got)
	}
}

// TestBuildHookFailureSparesSharedNodes: a calibration failure injected
// on one regime fails that key alone — its sibling builds, and the retry
// reuses the sibling's nodes instead of redoing or inheriting anything.
func TestBuildHookFailureSparesSharedNodes(t *testing.T) {
	partial, full := nanoKey("BaseQ", ptq.Partial), nanoKey("BaseQ", ptq.Full)
	var mu sync.Mutex
	failed := false
	opts := testRegistryOptions()
	opts.Clock = chaos.NewFake()
	opts.BuildHook = func(k Key) error {
		mu.Lock()
		defer mu.Unlock()
		if k == full && !failed {
			failed = true
			return errors.New("chaos: injected calibration failure")
		}
		return nil
	}
	met := NewMetrics()
	r := NewRegistry(opts, met)
	ctx := context.Background()

	var wg sync.WaitGroup
	var errPartial, errFull error
	wg.Add(2)
	go func() { defer wg.Done(); _, _, errPartial = r.Get(ctx, partial) }()
	go func() { defer wg.Done(); _, _, errFull = r.Get(ctx, full) }()
	wg.Wait()
	if errPartial != nil {
		t.Fatalf("sibling of the failed key: %v", errPartial)
	}
	if errFull == nil {
		t.Fatal("injected failure did not fail its key")
	}
	if _, _, err := r.Get(ctx, full); err != nil {
		t.Fatalf("retry of the failed key: %v", err)
	}
	for which, want := range [numNodes]int64{1, 1, 1} {
		if got := r.nodeRuns[which].Load(); got != want {
			t.Errorf("node kind %d built %d times, want %d", which, got, want)
		}
	}
	ref := NewRegistry(testRegistryOptions(), nil)
	for _, key := range []Key{partial, full} {
		if got, want := digestOrError(r.Snapshot(key)), standaloneDigest(t, ref, key); got != want {
			t.Errorf("%s: digest %s after the sibling's failure, standalone %s", key, got, want)
		}
	}
	if err := r.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCalibrationStatsLifetime: statistics are resident while builds for
// their config are in flight and for statsGrace after the last one, not a
// nanosecond longer; a build inside the grace re-arms it; reads of ready
// keys hold nothing; Drain releases at once and leaves no goroutine.
func TestCalibrationStatsLifetime(t *testing.T) {
	t.Cleanup(testutil.VerifyNoLeaks(t))
	clock := newStepClock()
	opts := testRegistryOptions()
	opts.Clock = clock
	met := NewMetrics()
	r := NewRegistry(opts, met)
	ctx := context.Background()
	nano := vit.ViTNano.Name
	get := func(key Key) {
		t.Helper()
		if _, _, err := r.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}

	if r.holdsStats(nano) {
		t.Fatal("statistics resident before any build")
	}
	get(nanoKey("BaseQ", ptq.Partial))
	waitFor(t, func() bool { return clock.sleepers() == 1 })
	if !r.holdsStats(nano) || met.CalibStatsBytes.Value() <= 0 {
		t.Fatalf("inside the grace: resident=%v, gauge %d bytes", r.holdsStats(nano), met.CalibStatsBytes.Value())
	}

	// A sibling inside the grace shares the set and restarts the grace:
	// the first timer comes due and must leave the statistics alone.
	clock.advance(statsGrace - time.Nanosecond)
	get(nanoKey("BaseQ", ptq.Full))
	waitFor(t, func() bool { return clock.sleepers() == 2 })
	clock.advance(time.Nanosecond)
	waitFor(t, func() bool { return clock.sleepers() == 1 })
	if !r.holdsStats(nano) {
		t.Fatal("a stale timer released statistics a later build had pinned")
	}
	if got := met.CalibCollects.Value(); got != 1 {
		t.Fatalf("%d collections for two siblings inside the grace, want 1", got)
	}
	clock.advance(statsGrace - 2*time.Nanosecond)
	if !r.holdsStats(nano) {
		t.Fatal("released before the grace elapsed")
	}
	clock.advance(time.Nanosecond)
	waitFor(t, func() bool { return !r.holdsStats(nano) })
	if got := met.CalibStatsBytes.Value(); got != 0 {
		t.Fatalf("gauge reads %d bytes after the release", got)
	}

	// Reads of ready keys — cached Gets, and a sibling-free rebuild is
	// not among them — pin nothing and collect nothing.
	for i := 0; i < 3; i++ {
		get(nanoKey("BaseQ", ptq.Partial))
		get(nanoKey("BaseQ", ptq.Full))
	}
	if r.holdsStats(nano) || clock.sleepers() != 0 || met.CalibCollects.Value() != 1 {
		t.Fatalf("reads of ready keys: resident=%v timers=%d collections=%d", r.holdsStats(nano), clock.sleepers(), met.CalibCollects.Value())
	}

	// A later cold key re-collects; Drain does not wait out its grace.
	get(Key{Config: nano, Method: "BaseQ", Bits: 4, Regime: ptq.Partial})
	waitFor(t, func() bool { return clock.sleepers() == 1 })
	if got := met.CalibCollects.Value(); got != 2 {
		t.Fatalf("%d collections after a key arrived past the grace, want 2", got)
	}
	if err := r.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if r.holdsStats(nano) || met.CalibStatsBytes.Value() != 0 {
		t.Fatalf("after Drain: resident=%v, gauge %d bytes", r.holdsStats(nano), met.CalibStatsBytes.Value())
	}
}
