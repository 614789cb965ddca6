package shard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"

	"quq/internal/serve"
)

// SweepStats summarizes one anti-entropy round. Every field is a pure
// function of the fleet's state at sweep time, so a seeded chaos replay
// reports identical stats on every run.
type SweepStats struct {
	// Keys is the number of distinct ready keys examined.
	Keys int
	// Mismatches counts healthy replica owners whose digest diverged
	// from (or was missing against) the authority digest.
	Mismatches int
	// Repairs counts divergent owners successfully overwritten with the
	// authority's snapshot.
	Repairs int
	// Failures counts repair attempts that could not complete (snapshot
	// fetch or install failed).
	Failures int
}

// antiEntropyLoop runs SweepNow every AntiEntropyInterval until Close
// (or the base context) stops it. The wait goes through the injected
// chaos.Clock, so a fake clock drives sweep rounds without wall time.
func (f *Front) antiEntropyLoop() {
	defer close(f.aeDone)
	ctx, cancel := context.WithCancel(f.opts.BaseContext)
	defer cancel()
	go func() {
		// Translate the aeStop signal into context cancellation so the
		// clock sleep (and any in-flight sweep round trip) aborts
		// immediately; the deferred cancel above reaps this goroutine
		// when the loop exits on its own.
		select {
		case <-f.aeStop:
			cancel()
		case <-ctx.Done():
		}
	}()
	f.sweepLoop(ctx)
}

// sweepLoop alternates interval waits and sweep rounds until ctx ends.
func (f *Front) sweepLoop(ctx context.Context) {
	for {
		if err := f.clock.Sleep(ctx, f.opts.AntiEntropyInterval); err != nil {
			return
		}
		f.SweepNow(ctx)
	}
}

// SweepNow runs one synchronous anti-entropy round: it scrapes every
// healthy backend's /models for per-entry snapshot digests, compares
// each key's R replica owners, and repairs divergent or missing copies
// by re-pushing the authority's snapshot (GET /v1/snapshot from the
// authority, POST /v1/snapshot to the divergent owner) through the same
// fault-injectable client the proxy path uses.
//
// The authority for a key is the digest held by the majority of its
// owners; on a tie, the digest of the lowest occupied replica slot wins
// — slot 0 is the key's primary placement, so a 1-vs-1 split heals
// toward the primary. Backends are visited in sorted-address order and
// keys in sorted order, so the sweep's request sequence (and therefore
// its stats and metrics) is deterministic for a given fleet state.
//
// Replication is the precondition: with R < 2 there is nothing to
// compare and the sweep is a no-op.
func (f *Front) SweepNow(ctx context.Context) SweepStats {
	var stats SweepStats
	if f.opts.Replicas < 2 {
		return stats
	}
	type page struct {
		Entries []serve.EntryInfo `json:"entries"`
	}
	digests := map[string]map[string]string{} // backend addr -> key -> digest
	keySet := map[string]bool{}
	backends := f.ring.Backends()
	for _, b := range backends {
		if !b.Healthy() {
			continue
		}
		var p page
		if err := f.getJSON(ctx, b.addr+"/models", &p); err != nil {
			f.met.ScrapeErrors.Inc()
			continue
		}
		held := map[string]string{}
		for _, e := range p.Entries {
			if !e.Ready || e.Digest == "" {
				continue
			}
			held[e.Key] = e.Digest
			keySet[e.Key] = true
		}
		digests[b.addr] = held
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		stats.Keys++
		f.sweepKey(ctx, key, digests, &stats)
	}
	return stats
}

// sweepKey compares one key's replica owners and repairs divergence.
func (f *Front) sweepKey(ctx context.Context, key string, digests map[string]map[string]string, stats *SweepStats) {
	owners := f.ring.OwnerN(key, f.opts.Replicas)
	// Tally the digests held by owners we could scrape; absent owners
	// (unhealthy, scrape failed) neither vote nor get repaired.
	votes := map[string]int{}
	order := []string{} // digests in first-seen (lowest-slot) order
	for _, b := range owners {
		held, scraped := digests[b.addr]
		if !scraped {
			continue
		}
		d, ok := held[key]
		if !ok {
			continue
		}
		if votes[d] == 0 {
			order = append(order, d)
		}
		votes[d]++
	}
	authority, best := "", 0
	for _, d := range order {
		// Strictly-greater keeps the earliest (lowest-slot) digest as the
		// tie winner: slot 0 is the key's primary placement.
		if votes[d] > best {
			authority, best = d, votes[d]
		}
	}
	if authority == "" {
		return // no scraped owner holds the key; nothing to converge to
	}
	// The repair source is the lowest-slot owner holding the authority
	// digest.
	var source *Backend
	for _, b := range owners {
		if held, ok := digests[b.addr]; ok && held[key] == authority {
			source = b
			break
		}
	}
	for _, b := range owners {
		held, scraped := digests[b.addr]
		if !scraped || b == source {
			continue
		}
		if d, ok := held[key]; ok && d == authority {
			continue
		}
		f.met.DigestMismatch.Inc()
		stats.Mismatches++
		if f.repair(ctx, key, source, b) == nil {
			f.met.Repairs.Inc()
			stats.Repairs++
		} else {
			stats.Failures++
		}
	}
}

// repair copies one key's snapshot from one owner to another: the
// anti-entropy fix for a divergent replica, and a drain's handoff.
func (f *Front) repair(ctx context.Context, key string, from, to *Backend) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		from.addr+"/v1/snapshot?key="+url.QueryEscape(key), nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	blob, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot from %s: status %d", from.addr, resp.StatusCode)
	}
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		to.addr+"/v1/snapshot", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	preq.Header.Set("Content-Type", "application/octet-stream")
	presp, err := f.client.Do(preq)
	if err != nil {
		return err
	}
	discard(presp)
	if presp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot install on %s: status %d", to.addr, presp.StatusCode)
	}
	return nil
}
