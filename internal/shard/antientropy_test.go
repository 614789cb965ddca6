package shard_test

import (
	"context"
	"testing"
	"time"

	"quq/internal/serve"
	"quq/internal/shard"
	"quq/internal/testutil"
)

// stepClock is a chaos.Clock whose Sleep parks until the test releases
// exactly one round, so a background loop advances only when told to.
// Each Sleep announces itself on parked before it waits: a receive from
// parked means the loop finished whatever preceded that Sleep.
type stepClock struct {
	parked  chan struct{}
	release chan struct{}
}

func newStepClock() *stepClock {
	return &stepClock{parked: make(chan struct{}), release: make(chan struct{})}
}

func (c *stepClock) Now() time.Time { return time.Unix(0, 0) }

func (c *stepClock) Sleep(ctx context.Context, _ time.Duration) error {
	select {
	case c.parked <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-c.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// awaitParked waits for the loop's next Sleep.
func (c *stepClock) awaitParked(t *testing.T) {
	t.Helper()
	select {
	case <-c.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the anti-entropy loop never reached its next wait")
	}
}

// TestAntiEntropyLoopRepairsPerReleasedRound runs the background sweep
// (AntiEntropyInterval > 0) on a clock that only the test advances: no
// sweep runs while the loop waits, one released round repairs a
// divergent replica, and Close stops the loop with nothing leaked.
func TestAntiEntropyLoopRepairsPerReleasedRound(t *testing.T) {
	// Registered first so it runs after every other cleanup (LIFO).
	t.Cleanup(testutil.VerifyNoLeaks(t))

	a, b := newRepBackend(t), newRepBackend(t)
	key, err := serve.KeyFromWire("ViT-Nano", "QUQ", 6, "full")
	if err != nil {
		t.Fatal(err)
	}
	a.setEntry(serve.EntryInfo{Key: key.String(), Ready: true, Digest: "aaaa"})
	b.setEntry(serve.EntryInfo{Key: key.String(), Ready: true, Digest: "bbbb"})

	clk := newStepClock()
	f := shard.New(shard.Options{
		Backends:            []string{a.srv.URL, b.srv.URL},
		Replicas:            2,
		ProbeInterval:       -1,
		AntiEntropyInterval: time.Hour,
		Retries:             -1,
		RetryBackoff:        1,
		Clock:               clk,
	})
	t.Cleanup(f.Close)
	scrapes := func() int64 { return a.scrapes.Load() + b.scrapes.Load() }

	clk.awaitParked(t)
	if n := scrapes(); n != 0 {
		t.Fatalf("%d /models scrapes before any round was released", n)
	}

	clk.release <- struct{}{}
	clk.awaitParked(t) // the released round's sweep is done
	if n := scrapes(); n != 2 {
		t.Fatalf("one released round scraped /models %d times, want 2", n)
	}
	if got := f.Metrics().Repairs.Value(); got != 1 {
		t.Fatalf("repairs after one round = %d, want 1", got)
	}
	ea, _ := a.entry(key.String())
	eb, _ := b.entry(key.String())
	if ea.Digest != eb.Digest {
		t.Fatalf("replicas still diverge after a released round: %s vs %s", ea.Digest, eb.Digest)
	}

	// Diverge again while the loop waits. Close pre-empts the next
	// release and returns once the loop has exited, so whatever the loop
	// did on its own is visible afterwards: it must be nothing.
	b.setEntry(serve.EntryInfo{Key: key.String(), Ready: true, Digest: "cccc"})
	f.Close()
	if n := scrapes(); n != 2 {
		t.Fatalf("%d /models scrapes with one round released, want 2", n)
	}
	if got := f.Metrics().Repairs.Value(); got != 1 {
		t.Fatalf("repairs after Close = %d, want 1", got)
	}
}
