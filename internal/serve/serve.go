// Package serve is quq-serve's serving layer: a concurrent, batched
// HTTP/JSON inference service over the repo's PTQ stack. It amortizes
// the calibrate-once artifact the paper's whole premise rests on — a
// ptq.QuantizedModel is built exactly once per (model, method, bits,
// regime) key by a singleflight registry, then shared read-only across
// every request (the concurrency contract documented on
// ptq.QuantizedModel and vit.Model).
//
// The pieces:
//
//   - Registry (registry.go): lazily builds and caches quantized models,
//     deduplicating concurrent first requests so each key calibrates
//     exactly once — and, below the key (calib.go), so does everything a
//     key shares with its siblings: statistics are collected once per
//     config (owned by the base-model slot, released after an idle grace
//     because they dwarf the models), weights and site quantizers are
//     built once per (config, method, bits) and kept, and an entry is an
//     assembly over them — both regimes of a selection serve from one
//     weight clone;
//   - Batcher (batcher.go): a micro-batching scheduler — requests land
//     in a bounded queue, are coalesced per model key, and execute on a
//     GOMAXPROCS-sized worker pool;
//   - Governor (governor.go): the batcher's one dispatch policy — it
//     watches batch occupancy and queue depth over a sliding window
//     (via an injectable chaos.Clock) and picks between dispatching at
//     submit with wide per-batch intra-op worker grants (low occupancy)
//     and max-batch / max-linger coalescing on one worker per batch
//     (load), and estimates queue waits for deadline-aware admission
//     control (requests whose estimated wait exceeds their latency
//     budget shed with 429 before taking a queue slot);
//   - Server (server.go): the HTTP surface (POST /v1/classify,
//     POST /v1/quantize, GET/POST /v1/snapshot, GET /models, /healthz,
//     /metrics) with panic recovery, request size limits (8 MiB; a
//     snapshot install takes whole models), per-request timeouts, queue
//     backpressure (429) and graceful drain;
//   - metrics (metrics/): the stdlib-only instrumentation behind
//     /metrics.
package serve

import (
	"quq/internal/serve/metrics"
)

// Metrics bundles every instrument the serving layer updates; the
// /metrics endpoint renders the underlying registry.
type Metrics struct {
	Registry *metrics.Registry

	// HTTP surface.
	Requests *metrics.Counter   // requests accepted by any endpoint
	Failures *metrics.Counter   // responses with a 5xx status
	Rejected *metrics.Counter   // 429s from queue backpressure
	Panics   *metrics.Counter   // handler/worker panics recovered
	Latency  *metrics.Histogram // request wall time, seconds

	// Micro-batching.
	Images     *metrics.Counter   // images classified
	BatchSize  *metrics.Histogram // images per dispatched batch
	QueueDepth *metrics.Gauge     // items admitted and not yet finished
	Abandoned  *metrics.Counter   // queued items released after their submitter gave up

	// Occupancy-adaptive scheduling (governor.go).
	IntraopWorkers *metrics.Gauge     // per-batch intra-op worker allocation the governor chose
	Occupancy      *metrics.Histogram // batch occupancy (images / max-batch) per dispatched batch
	Shed           *metrics.Counter   // requests shed by latency-budget admission control (429)

	// Model registry.
	CacheHits    *metrics.Counter   // registry lookups that found an entry
	CacheMisses  *metrics.Counter   // lookups that triggered a calibration
	BuildSeconds *metrics.Histogram // one key's build wall time, seconds, waits on shared calibration nodes included
	IntDeclines  *metrics.Counter   // weight GEMMs the integer path handed back to the float path; brought up to date by each /metrics scrape

	// Shared calibration (calib.go).
	CalibCollects   *metrics.Counter // statistics collections (one per config while its statistics stay resident)
	CalibStatsBytes *metrics.Gauge   // calibration statistics resident, bytes

	// Durable snapshot store (snapshot.go).
	SnapshotLoads       *metrics.Counter // entries warm-restarted from disk
	SnapshotWrites      *metrics.Counter // snapshots committed to disk
	SnapshotErrors      *metrics.Counter // snapshot encode/write/load failures
	SnapshotQuarantined *metrics.Counter // snapshot files quarantined (bad digest or payload)
	SnapshotInstalls    *metrics.Counter // snapshots installed via POST /v1/snapshot (anti-entropy repair)
}

// NewMetrics builds the full instrument set on a fresh registry.
func NewMetrics() *Metrics {
	r := metrics.NewRegistry()
	return &Metrics{
		Registry: r,

		Requests: r.NewCounter("quq_serve_requests_total", "HTTP requests accepted"),
		Failures: r.NewCounter("quq_serve_failures_total", "HTTP responses with status >= 500"),
		Rejected: r.NewCounter("quq_serve_rejected_total", "requests rejected by queue backpressure (429)"),
		Panics:   r.NewCounter("quq_serve_panics_total", "panics recovered in handlers or batch workers"),
		Latency:  r.NewHistogram("quq_serve_request_seconds", "request latency in seconds", metrics.LatencyBuckets()),

		Images:     r.NewCounter("quq_serve_images_total", "images classified"),
		BatchSize:  r.NewHistogram("quq_serve_batch_size", "images per dispatched micro-batch", metrics.SizeBuckets()),
		QueueDepth: r.NewGauge("quq_serve_queue_depth", "images admitted and not yet finished"),
		Abandoned:  r.NewCounter("quq_serve_abandoned_total", "queued items released after their submitter's context expired"),

		IntraopWorkers: r.NewGauge("quq_serve_intraop_workers", "per-batch intra-op worker allocation chosen by the governor"),
		Occupancy:      r.NewHistogram("quq_serve_occupancy", "batch occupancy (images / max-batch) per dispatched micro-batch", metrics.FractionBuckets()),
		Shed:           r.NewCounter("quq_serve_shed_total", "requests shed by latency-budget admission control (429)"),

		CacheHits:    r.NewCounter("quq_serve_model_cache_hits_total", "registry lookups served from cache"),
		CacheMisses:  r.NewCounter("quq_serve_model_cache_misses_total", "registry lookups that calibrated a model"),
		BuildSeconds: r.NewHistogram("quq_serve_model_build_seconds", "wall time of one key's build in seconds, waits on calibration nodes shared with sibling keys included", metrics.LatencyBuckets()),
		IntDeclines:  r.NewCounter("quq_serve_int_declines_total", "weight GEMMs an -int-path model handed back to the float GEMM (unknown site, shape mismatch, off-grid input); the integer path served everything only while this is 0"),

		CalibCollects:   r.NewCounter("quq_serve_calib_collects_total", "calibration-statistics collections; sibling keys of a config share one while it stays resident"),
		CalibStatsBytes: r.NewGauge("quq_serve_calib_stats_bytes", "calibration statistics resident in memory, bytes; 0 once builds are done and the idle grace has passed"),

		SnapshotLoads:       r.NewCounter("quq_serve_snapshot_loads_total", "registry entries warm-restarted from the snapshot dir"),
		SnapshotWrites:      r.NewCounter("quq_serve_snapshot_writes_total", "snapshots committed to the snapshot dir"),
		SnapshotErrors:      r.NewCounter("quq_serve_snapshot_errors_total", "snapshot encode, write or load failures"),
		SnapshotQuarantined: r.NewCounter("quq_serve_snapshot_quarantined_total", "snapshot files quarantined after failing digest or payload verification"),
		SnapshotInstalls:    r.NewCounter("quq_serve_snapshot_installs_total", "snapshots installed via POST /v1/snapshot"),
	}
}
