package metrics

import (
	"bytes"
	"sync"
	"testing"
)

// TestMergeUnderConcurrentScrapes hammers the full scrape pipeline the
// shard aggregator runs in production — live instruments mutated while
// WriteText renders them, pages parsed by concurrent workers, partial
// expositions folded together — and asserts the cluster view is
// schedule-independent: exact totals, and byte-identical WriteText
// output no matter how the merges were ordered or parallelized.
//
// Observations are small integers so every float64 partial sum is exact
// and order-independent; any schedule-dependent divergence is therefore
// a real synchronization bug, not float noise.
func TestMergeUnderConcurrentScrapes(t *testing.T) {
	const (
		backends         = 8
		writersPerPage   = 4
		incsPerWriter    = 500
		totalPerBackend  = writersPerPage * incsPerWriter
		totalClusterWide = backends * totalPerBackend
	)

	// Phase 1: each "backend" hammers its own live registry from several
	// goroutines while scrapers concurrently render and parse it. The
	// mid-flight pages exercise WriteText-vs-Observe synchronization
	// under -race; only the final quiesced page feeds the merge phase.
	pages := make([][]byte, backends)
	var fleet sync.WaitGroup
	for b := 0; b < backends; b++ {
		fleet.Add(1)
		go func(b int) {
			defer fleet.Done()
			reg := NewRegistry()
			c := reg.NewCounter("quq_requests_total", "total requests")
			h := reg.NewHistogram("quq_batch_size", "batch sizes", SizeBuckets())

			stop := make(chan struct{})
			var scrapers sync.WaitGroup
			for s := 0; s < 2; s++ {
				scrapers.Add(1)
				go func() {
					defer scrapers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						var buf bytes.Buffer
						if err := reg.WriteText(&buf); err != nil {
							t.Errorf("backend %d: mid-flight WriteText: %v", b, err)
							return
						}
						if _, err := ParseText(&buf); err != nil {
							t.Errorf("backend %d: mid-flight page unparseable: %v", b, err)
							return
						}
					}
				}()
			}

			var writers sync.WaitGroup
			for w := 0; w < writersPerPage; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for i := 0; i < incsPerWriter; i++ {
						c.Inc()
						// Integer-valued observations spread across every
						// bucket including overflow; exact under any
						// summation order.
						h.Observe(float64((w*incsPerWriter + i) % 200))
					}
				}(w)
			}
			writers.Wait()
			close(stop)
			scrapers.Wait()

			var buf bytes.Buffer
			if err := reg.WriteText(&buf); err != nil {
				t.Errorf("backend %d: final WriteText: %v", b, err)
				return
			}
			pages[b] = buf.Bytes()
		}(b)
	}
	fleet.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// mergeOrder folds the pages in the given order into one exposition.
	mergeOrder := func(order []int) *Exposition {
		t.Helper()
		acc := NewExposition()
		for _, idx := range order {
			e, err := ParseText(bytes.NewReader(pages[idx]))
			if err != nil {
				t.Fatalf("page %d: %v", idx, err)
			}
			if err := acc.Merge(e); err != nil {
				t.Fatalf("merging page %d: %v", idx, err)
			}
		}
		return acc
	}
	render := func(e *Exposition) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := e.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Phase 2: serial merges in opposite orders must agree byte-for-byte
	// — quantiles included, since they are recomputed from the merged
	// buckets rather than averaged.
	forward := make([]int, backends)
	reverse := make([]int, backends)
	for i := range forward {
		forward[i] = i
		reverse[i] = backends - 1 - i
	}
	fwdView := render(mergeOrder(forward))
	revView := render(mergeOrder(reverse))
	if !bytes.Equal(fwdView, revView) {
		t.Fatalf("merge order changed the cluster view:\nforward:\n%s\nreverse:\n%s", fwdView, revView)
	}

	// Phase 3: parallel partial merges (each worker parses and folds a
	// disjoint page subset concurrently) followed by a serial fold of the
	// partials must match the serial view exactly.
	const shards = 4
	partials := make([]*Exposition, shards)
	var workers sync.WaitGroup
	for s := 0; s < shards; s++ {
		workers.Add(1)
		go func(s int) {
			defer workers.Done()
			acc := NewExposition()
			for idx := s; idx < backends; idx += shards {
				e, err := ParseText(bytes.NewReader(pages[idx]))
				if err != nil {
					t.Errorf("worker %d: page %d: %v", s, idx, err)
					return
				}
				if err := acc.Merge(e); err != nil {
					t.Errorf("worker %d: merging page %d: %v", s, idx, err)
					return
				}
			}
			partials[s] = acc
		}(s)
	}
	workers.Wait()
	if t.Failed() {
		t.FailNow()
	}
	cluster := NewExposition()
	for s, p := range partials {
		if err := cluster.Merge(p); err != nil {
			t.Fatalf("folding partial %d: %v", s, err)
		}
	}
	parView := render(cluster)
	if !bytes.Equal(parView, fwdView) {
		t.Fatalf("parallel partial merge diverged from the serial view:\nparallel:\n%s\nserial:\n%s", parView, fwdView)
	}

	// Exact totals: every increment and observation is accounted for.
	if got, ok := cluster.Scalar("quq_requests_total"); !ok || got != totalClusterWide {
		t.Fatalf("merged quq_requests_total = %v (present=%v), want %d", got, ok, totalClusterWide)
	}
	if got, ok := histCount(cluster, "quq_batch_size"); !ok || got != totalClusterWide {
		t.Fatalf("merged quq_batch_size count = %v (present=%v), want %d", got, ok, totalClusterWide)
	}
}
