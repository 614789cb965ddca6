// Package shard is quq-shard's sharding layer: a consistent-hash HTTP
// front-end that partitions the quantized-model registry keyspace across
// a fleet of quq-serve backends, so large-zoo calibration cost — the
// once-per-key price QUQ's PRA calibration and grid-search refinement
// pay at load time — is spent on exactly one shard per key instead of
// once per process.
//
// The pieces:
//
//   - Ring (ring.go): a consistent-hash ring with virtual nodes and
//     bounded-load overflow. Keys are canonical serve.Key strings
//     (serve.CanonicalKey runs before hashing, so "Quq" and "quq" land
//     on one shard); hashing is FNV-1a, so two processes always agree
//     on ownership, and adding or removing one backend only remaps the
//     arcs it owns (~1/N of the keyspace). The ring is also the roster:
//     the admin surface (admin.go) joins, drains and removes members on
//     it, and its epoch counts those changes;
//   - prober (prober.go): periodic /healthz probes with
//     consecutive-failure ejection and re-admission on recovery;
//   - Front (proxy.go): the HTTP surface — it canonicalizes the key in
//     a classify/quantize body, picks the owning backend, proxies with
//     retry-with-backoff on connection failures (never on HTTP errors:
//     a 429 is propagated backpressure, retrying it would amplify
//     overload), and fails over to ring successors when a backend dies;
//   - aggregation (aggregator.go): /metrics fans out to every healthy
//     backend's Prometheus-style exposition and merges them — via
//     metrics.ParseText/Merge — into one deterministic cluster view.
package shard

import (
	"context"
	"net/http"
	"time"

	"quq/internal/chaos"
	"quq/internal/serve/metrics"
)

// What no deployment, chaos script or benchmark has ever set is a
// constant, not an option. /cluster reports vnodes and maxLoadFactor,
// so a shard-aware client still rebuilds the same ring.
const (
	// vnodes is the number of virtual nodes per backend: more means
	// smoother key distribution and smaller moved arcs.
	vnodes = 128
	// maxLoadFactor bounds per-backend load: a backend whose in-flight
	// request count exceeds it times the fleet average spills its keys
	// to the next ring successor.
	maxLoadFactor = 1.25
	// handoffMaxKeys bounds how many registry keys one admin drain
	// re-homes before the member leaves; entries beyond the cap rely on
	// replication or on-demand recalibration.
	handoffMaxKeys = 64
	// retries is how many times a proxied request is retried against
	// the same backend on connection failure before failing over.
	// HTTP-level responses, including 429 backpressure, are never
	// retried.
	retries = 2
	// retryBackoff is the first retry delay, doubled per attempt and
	// jittered from Options.Seed; the sleeps go through Options.Clock.
	retryBackoff = 50 * time.Millisecond
	// probeTimeout bounds one /healthz probe.
	probeTimeout = time.Second
	// failAfter is the consecutive probe failures before ejection.
	failAfter = 2
	// okAfter is the consecutive healthy probes an ejected backend must
	// pass before re-admission. Together with failAfter it is flap
	// hysteresis: a backend oscillating between alive and dead on
	// successive probe rounds stays ejected instead of churning the ring
	// (and re-moving its arcs) every cycle.
	okAfter = 2
)

// Options tunes the sharding front-end.
type Options struct {
	// BaseContext roots the front-end's background work (the prober's
	// health-check round trips). Cancelling it aborts in-flight probes;
	// nil means the front-end runs until Close with no external deadline.
	BaseContext context.Context
	// Backends lists the quq-serve base addresses ("host:port" or full
	// http:// URLs) forming the initial ring.
	Backends []string
	// Replicas is the replication factor R: each registry key's
	// calibration lives on its first R healthy ring successors. Warming
	// requests (/v1/quantize) fan out to all R owners; reads are served
	// by the first reachable replica. Default 1 (no replication).
	Replicas int
	// ProbeInterval is the /healthz probe period (default 2s; negative
	// disables the background prober — ProbeNow still works).
	ProbeInterval time.Duration
	// AntiEntropyInterval is the period of the background anti-entropy
	// sweep that compares snapshot digests across each key's R replica
	// owners and repairs divergent or missing copies by re-pushing the
	// healthy majority's snapshot (0 or negative disables the loop —
	// SweepNow still works; it is also a no-op unless Replicas >= 2).
	// The wait goes through Clock, so chaos replays drive sweeps from a
	// fake clock.
	AntiEntropyInterval time.Duration
	// RequestTimeout bounds one proxied request end-to-end, including a
	// first-request calibration on the backend (default 120s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps the request body (default 8 MiB).
	MaxBodyBytes int64
	// Transport overrides the outbound HTTP transport (tests and the
	// chaos fault-injection layer).
	Transport http.RoundTripper
	// Seed seeds the retry-backoff jitter (default 1). All randomness in
	// the front-end flows from this one seed through internal/rng, so two
	// fronts given the same seed and the same request sequence produce
	// identical retry schedules — which is what lets the chaos harness
	// replay a fault script byte-for-byte.
	Seed uint64
	// Clock is the time source for retry-backoff sleeps (default the
	// real clock). The chaos harness and the tests swap in a fake so
	// fault replays neither wait out real backoffs nor depend on wall
	// time.
	Clock chaos.Clock
}

func (o *Options) defaults() {
	if o.BaseContext == nil {
		// The one place the front-end mints a root: an embedder that
		// declines to supply a base context gets background work scoped
		// only by Close, matching the pre-BaseContext behavior.
		//quq:ctx-ok explicit opt-out default; embedders thread a real context via Options.BaseContext
		o.BaseContext = context.Background()
	}
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 120 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Clock == nil {
		o.Clock = chaos.Real
	}
}

// Metrics bundles the front-end's own instruments; /metrics merges this
// set with every backend's exposition.
type Metrics struct {
	Registry *metrics.Registry

	Requests     *metrics.Counter // requests accepted by any endpoint
	Failures     *metrics.Counter // responses with a 5xx status
	Backpressure *metrics.Counter // backend 429s propagated to clients
	Retries      *metrics.Counter // same-backend retries after connection failure
	Failovers    *metrics.Counter // requests re-routed to a ring successor
	Ejections    *metrics.Counter // backends marked unhealthy
	Readmissions *metrics.Counter // ejected backends readmitted by a probe
	ScrapeErrors *metrics.Counter // backend /metrics scrapes that failed
	Joins        *metrics.Counter // members admitted through /admin/join
	Leaves       *metrics.Counter // members removed (drain or leave)
	Handoffs     *metrics.Counter // registry keys re-homed by drains

	// Anti-entropy (antientropy.go).
	DigestMismatch *metrics.Counter // replica owners whose snapshot digest diverged from the authority
	Repairs        *metrics.Counter // divergent owners repaired by re-pushing the authority snapshot

	Healthy      *metrics.Gauge     // healthy backends on the ring
	Stale        *metrics.Gauge     // healthy backends missing from the last fleet view
	RingBackends *metrics.Gauge     // ring members (healthy or not)
	RingEpoch    *metrics.Gauge     // membership epoch (monotonic per topology change)
	Inflight     *metrics.GaugeVec  // per-backend in-flight proxied requests
	Latency      *metrics.Histogram // front-end request wall time, seconds
}

// NewShardMetrics builds the front-end instrument set on a fresh
// registry.
func NewShardMetrics() *Metrics {
	r := metrics.NewRegistry()
	return &Metrics{
		Registry: r,

		Requests:     r.NewCounter("quq_shard_requests_total", "HTTP requests accepted by the front-end"),
		Failures:     r.NewCounter("quq_shard_failures_total", "front-end responses with status >= 500"),
		Backpressure: r.NewCounter("quq_shard_backpressure_total", "backend 429 responses propagated to clients"),
		Retries:      r.NewCounter("quq_shard_retries_total", "same-backend retries after connection failure"),
		Failovers:    r.NewCounter("quq_shard_failovers_total", "requests re-routed to a ring successor"),
		Ejections:    r.NewCounter("quq_shard_ejections_total", "backends marked unhealthy"),
		Readmissions: r.NewCounter("quq_shard_readmissions_total", "ejected backends readmitted after a healthy probe"),
		ScrapeErrors: r.NewCounter("quq_shard_scrape_errors_total", "backend /metrics scrapes that failed"),
		Joins:        r.NewCounter("quq_shard_joins_total", "backends admitted to the ring through membership joins"),
		Leaves:       r.NewCounter("quq_shard_leaves_total", "backends removed from the ring (drain or leave)"),
		Handoffs:     r.NewCounter("quq_shard_handoff_keys_total", "registry keys re-homed onto new owners by drains"),

		DigestMismatch: r.NewCounter("quq_shard_digest_mismatch_total", "replica owners whose snapshot digest diverged from the key's authority digest"),
		Repairs:        r.NewCounter("quq_shard_antientropy_repairs_total", "divergent replica owners repaired by re-pushing the authority snapshot"),

		Healthy:      r.NewGauge("quq_shard_healthy_backends", "healthy backends on the ring"),
		Stale:        r.NewGauge("quq_shard_stale_shards", "healthy backends whose contribution to the last merged /metrics view is stale (scrape failed)"),
		RingBackends: r.NewGauge("quq_shard_ring_backends", "backends on the ring, healthy or not"),
		RingEpoch:    r.NewGauge("quq_shard_ring_epoch", "membership epoch; increments on every join, leave or drain"),
		Inflight:     r.NewGaugeVec("quq_shard_backend_inflight", "in-flight proxied requests per backend", "backend"),
		Latency:      r.NewHistogram("quq_shard_request_seconds", "front-end request latency in seconds", metrics.LatencyBuckets()),
	}
}
