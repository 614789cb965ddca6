package main

// metricSpec is one row of BENCHMARK.json: the benchmark's tests hold
// these tables and that file to each other, so a metric cannot be
// emitted under a name the contract does not list (or the reverse).
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
}

// endToEnd lists what a user of the serving stack sees. Every workload
// reports every row; README.md says what each row means per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"img_per_s", "img/s", "higher", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"req_p90_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.05},
	{"keys_per_s", "keys/s", "higher", 0.25},
}

// perLayer lists the layer trace, outside in. They carry no bound: they
// explain a move in an end-to-end row, they do not gate.
var perLayer = []metricSpec{
	{Name: "client.sent", Unit: "count", Better: "higher"},
	{Name: "client.ok", Unit: "count", Better: "higher"},
	{Name: "client.failed", Unit: "count", Better: "lower"},
	{Name: "client.req_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.slo_miss_share", Unit: "share", Better: "lower"},
	{Name: "client.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.steal_share", Unit: "share", Better: "lower"},
	{Name: "client.traced_req_ms", Unit: "ms", Better: "lower"},
	{Name: "client.hop_ms", Unit: "ms", Better: "lower"},

	{Name: "shard.hop_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.retries", Unit: "count", Better: "lower"},
	{Name: "shard.failovers", Unit: "count", Better: "lower"},
	{Name: "shard.backpressure", Unit: "count", Better: "lower"},

	{Name: "shardclient.hop_ms", Unit: "ms", Better: "lower"},

	{Name: "serve.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.sched_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "img", Better: "higher"},
	{Name: "serve.occupancy_mean", Unit: "share", Better: "higher"},
	{Name: "serve.cache_misses", Unit: "count", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.abandoned", Unit: "count", Better: "lower"},
	{Name: "serve.panics", Unit: "count", Better: "lower"},

	{Name: "ptq.forward_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "ptq.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "ptq.tap_ms", Unit: "ms", Better: "lower"},
	{Name: "ptq.taps_per_img", Unit: "count", Better: "lower"},
	{Name: "ptq.allocs_per_img", Unit: "count", Better: "lower"},
	{Name: "ptq.bytes_per_img", Unit: "B", Better: "lower"},
	{Name: "ptq.trace_overhead_share", Unit: "share", Better: "lower"},

	{Name: "vit.linear_ms", Unit: "ms", Better: "lower"},
	{Name: "vit.attn_gemm_ms", Unit: "ms", Better: "lower"},
	{Name: "vit.sfu_ms", Unit: "ms", Better: "lower"},
	{Name: "vit.glue_ms", Unit: "ms", Better: "lower"},
	{Name: "vit.fp_forward_ms", Unit: "ms", Better: "lower"},

	{Name: "ptq.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "ptq.calib_act_ms", Unit: "ms", Better: "lower"},
	{Name: "ptq.weight_quant_ms", Unit: "ms", Better: "lower"},
	{Name: "ptq.int_engine_build_ms", Unit: "ms", Better: "lower"},

	{Name: "quant.quantize_ns_per_elem", Unit: "ns/elem", Better: "lower"},
	{Name: "quant.pra_ms", Unit: "ms", Better: "lower"},
	{Name: "quant.refine_ms", Unit: "ms", Better: "lower"},
	{Name: "qub.encode_ns_per_elem", Unit: "ns/elem", Better: "lower"},
	{Name: "qub.decode_ns_per_elem", Unit: "ns/elem", Better: "lower"},
	{Name: "accel.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "accel.gemm_prepared_us", Unit: "us", Better: "lower"},
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.intmatmul_gops", Unit: "Gop/s", Better: "higher"},
	{Name: "tensor.matmul_bytes", Unit: "B", Better: "lower"},

	{Name: "snapstore.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "snapstore.write_ms", Unit: "ms", Better: "lower"},
	{Name: "snapstore.load_ms", Unit: "ms", Better: "lower"},
	{Name: "snapstore.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "snapstore.bytes_per_key", Unit: "B", Better: "lower"},
	{Name: "snapstore.warm_restart_ms", Unit: "ms", Better: "lower"},
}

// workloadSpec is one BENCHMARK.json workload row.
type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{"fleet-singles", "one ViT-Nano image per request through quq-shard to 3 workers (R=2): wire decode, linger, queueing and the proxy hop dominate, the kernels do little"},
	{"batch-float", "4 ViT-S images per request straight to one worker: >90% of a request is ptq/quant/tensor/vit forward work on the float GEMM engine, the serving layers barely register"},
	{"batch-int", "batch-float with the integer GEMM engine (-int-path): the sibling that shows a float-side gain costing the integer side, or the reverse"},
	{"cold-keys", "20 never-seen keys quantized into a snapshot dir, then a warm restart and reads on the restored keys: calibration and snapstore do the work, the forward almost none"},
}
