package shard

import (
	"context"
	"net/http"
	"time"
)

// prober watches backend health: every interval it GETs each backend's
// /healthz; failAfter consecutive failures eject the backend from
// routing, and okAfter consecutive healthy probes readmit it. Both
// thresholds are hysteresis against flapping — a backend alternating
// alive and dead every probe round never assembles the required streak
// in either direction, so it stays wherever it is instead of churning
// the ring each cycle. Ejection only flips the health bit — the backend
// keeps its virtual nodes, so when it returns, exactly the arcs it
// always owned come back to it (key remapping stays limited to the
// moved arc in both directions).
//
// All probe I/O descends from the base context handed to newProber, so
// cancelling it (the embedder shutting down) aborts in-flight health
// checks instead of letting them run out their timeouts.
type prober struct {
	base     context.Context
	ring     *Ring
	client   *http.Client
	interval time.Duration
	met      *Metrics

	stop chan struct{}
	done chan struct{}
}

// newProber builds a prober over the ring. base roots every probe's
// context; base and met must be non-nil.
func newProber(base context.Context, ring *Ring, client *http.Client, interval time.Duration, met *Metrics) *prober {
	return &prober{
		base:     base,
		ring:     ring,
		client:   client,
		interval: interval,
		met:      met,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the background probe loop. A non-positive interval
// disables it (ProbeNow still works, which is how tests and -smoke drive
// health transitions deterministically).
func (p *prober) Start() {
	if p.interval <= 0 {
		close(p.done)
		return
	}
	go p.loop()
}

func (p *prober) loop() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-p.base.Done():
			return
		case <-t.C:
			p.ProbeNow(p.base)
		}
	}
}

// Stop terminates the probe loop and waits for it to exit.
func (p *prober) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	<-p.done
}

// ProbeNow runs one synchronous probe round over every backend; each
// round trip is bounded by the probe timeout and ctx.
func (p *prober) ProbeNow(ctx context.Context) {
	for _, b := range p.ring.Backends() {
		p.probe(ctx, b)
	}
	p.met.Healthy.Set(int64(p.ring.HealthyCount()))
}

// probe checks one backend and applies the ejection/re-admission policy.
func (p *prober) probe(ctx context.Context, b *Backend) {
	if p.probeOK(ctx, b) {
		b.probeFails.Store(0)
		if b.healthy.Load() {
			return
		}
		if int(b.probeOKs.Add(1)) >= okAfter {
			b.probeOKs.Store(0)
			if !b.healthy.Swap(true) {
				p.met.Readmissions.Inc()
			}
		}
		return
	}
	b.probeOKs.Store(0)
	fails := b.probeFails.Add(1)
	if int(fails) >= failAfter {
		eject(b, p.met)
	}
}

// probeOK reports whether one /healthz round trip succeeded.
func (p *prober) probeOK(ctx context.Context, b *Backend) bool {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	// The body is irrelevant; draining it would only delay the round.
	if err := resp.Body.Close(); err != nil {
		return false
	}
	return resp.StatusCode == http.StatusOK
}

// eject marks a backend unhealthy (idempotently), counting the
// transition. Shared by the prober and the proxy's passive
// connection-failure path. The recovery streak resets so re-admission
// always demands okAfter fresh consecutive healthy probes.
func eject(b *Backend, met *Metrics) {
	b.probeOKs.Store(0)
	if b.healthy.Swap(false) {
		met.Ejections.Inc()
	}
}
