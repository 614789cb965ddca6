package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"quq/internal/ptq"
	"quq/internal/serve"
	"quq/internal/shard"
	"quq/internal/shardclient"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// counters are the stack's own instruments, summed over its workers
// (and its front): the values /metrics renders, read in process.
type counters struct {
	batches, images, occupancy                float64
	misses, rejected, shed, abandoned, panics float64
	retries, failovers, backpressure          float64
}

func (st *stack) counters() counters {
	var c counters
	for _, w := range st.workers {
		m := w.srv.Metrics()
		c.batches += float64(m.BatchSize.Count())
		c.images += m.BatchSize.Sum()
		c.occupancy += m.Occupancy.Sum()
		c.misses += float64(m.CacheMisses.Value())
		c.rejected += float64(m.Rejected.Value())
		c.shed += float64(m.Shed.Value())
		c.abandoned += float64(m.Abandoned.Value())
		c.panics += float64(m.Panics.Value())
	}
	if st.front != nil {
		m := st.front.Metrics()
		c.retries = float64(m.Retries.Value())
		c.failovers = float64(m.Failovers.Value())
		c.backpressure = float64(m.Backpressure.Value())
	}
	return c
}

func (a counters) sub(b counters) counters {
	return counters{
		a.batches - b.batches, a.images - b.images, a.occupancy - b.occupancy,
		a.misses - b.misses, a.rejected - b.rejected, a.shed - b.shed, a.abandoned - b.abandoned, a.panics - b.panics,
		a.retries - b.retries, a.failovers - b.failovers, a.backpressure - b.backpressure,
	}
}

// layerPass is the traced pass over a stack the measured windows have
// finished with. Everything is timed from outside, around calls into
// the layers' public functions.
type layerPass struct {
	st       *stack
	replicas int
	in       *inputs
	models   []*ptq.QuantizedModel // per key, as served
	owners   []*worker             // per key, a worker holding it
	replay   []schedEntry          // requests replayed one at a time through the traced hops
	direct   int                   // how many of them also go through the layers by direct call
	latency  phase                 // the untraced window the client rows describe
	sloMs    float64
	delta    counters // instrument deltas over the untraced windows
	seed     uint64
	scratch  string

	snapDir       string  // a snapshot dir the workload filled, if it did
	warmRestartMs float64 // the workload's own warm restart, if it made one
}

func (lp *layerPass) run(ctx context.Context, res *result) {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = 0 // a layer the workload bypasses reports 0
	}
	res.Layers = out
	rec := newRecorder()

	lp.clientRows(out)
	lp.counterRows(out)
	if err := lp.hops(ctx, rec, out); err != nil {
		res.problemf("traced hops: %v", err)
	}
	if lp.replicas > 0 {
		if err := lp.shardclientHop(ctx, out); err != nil {
			res.problemf("shardclient hop: %v", err)
		}
	}
	if err := lp.layersDirect(ctx, rec, out); err != nil {
		res.problemf("direct layer calls: %v", err)
	}
	primary := lp.in.keys[0]
	if err := calibrationRows(primary, out); err != nil {
		res.problemf("calibration: %v", err)
	}
	if err := kernelRows(lp.models[0], lp.in.images[0][0], lp.seed, out); err != nil {
		res.problemf("direct kernels: %v", err)
	}
	if err := lp.snapstoreRows(primary.String(), out); err != nil {
		res.problemf("snapstore: %v", err)
	}
	res.Spans = rec.snapshot()
}

// clientRows describes the untraced latency window as the client saw it.
func (lp *layerPass) clientRows(out map[string]float64) {
	p := lp.latency
	out["client.sent"] = float64(p.Sent)
	out["client.ok"] = float64(p.OK)
	out["client.failed"] = float64(p.Failed)
	out["client.req_p99_ms"] = percentile(p.Lat, 99)
	out["client.late_p99_ms"] = percentile(p.Late, 99)
	out["client.steal_share"] = p.Steal
	miss := p.Failed // a failed request misses any latency limit
	if lp.sloMs > 0 {
		for _, l := range p.Lat {
			if l > lp.sloMs {
				miss++
			}
		}
	}
	if p.Sent > 0 {
		out["client.slo_miss_share"] = float64(miss) / float64(p.Sent)
	}
}

func (lp *layerPass) counterRows(out map[string]float64) {
	d := lp.delta
	if d.batches > 0 {
		out["serve.batch_size_mean"] = d.images / d.batches
		out["serve.occupancy_mean"] = d.occupancy / d.batches
	}
	out["serve.cache_misses"] = d.misses
	out["serve.rejected"] = d.rejected
	out["serve.shed"] = d.shed
	out["serve.abandoned"] = d.abandoned
	out["serve.panics"] = d.panics
	out["shard.retries"] = d.retries
	out["shard.failovers"] = d.failovers
	out["shard.backpressure"] = d.backpressure
}

// hops replays requests one at a time through second listeners over
// the same serve.Server objects (and a second front over those), whose
// handlers are wrapped in span middleware; the listeners the measured
// windows used carry no wrapper. Replaying singly is what lets spans
// nest by containment: the front forwards no request headers, so a span
// id cannot ride the wire.
func (lp *layerPass) hops(ctx context.Context, rec *recorder, out map[string]float64) (err error) {
	var cur atomic.Int64
	cur.Store(-1)
	shutdown, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var listeners []*listener
	defer func() {
		for _, ln := range listeners {
			err = errors.Join(err, ln.close(shutdown))
		}
	}()
	port := 0
	if lp.replicas > 0 {
		port = fleetPort + 10
	}
	var urls []string
	for i, w := range lp.st.workers {
		ln, err := listen(spanMiddleware(rec, "serve.handler", &cur, w.srv.Handler()), workerPort(port, i))
		if err != nil {
			return err
		}
		listeners = append(listeners, ln)
		urls = append(urls, ln.url)
	}
	entry := urls[0]
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	if lp.replicas > 0 {
		// The traced listeners have their own addresses, so the second
		// front's ring places keys differently: warm them through it.
		front := shard.New(shard.Options{Backends: urls, Replicas: lp.replicas, ProbeInterval: -1})
		defer front.Close()
		ln, err := listen(spanMiddleware(rec, "shard.front", &cur, front.Handler()), port)
		if err != nil {
			return err
		}
		listeners = append(listeners, ln)
		entry = ln.url
		for k := range lp.in.keys {
			if status, _, body, err := post(ctx, hc, entry+"/v1/quantize", lp.in.quantize[k]); err != nil || status != http.StatusOK {
				return fmt.Errorf("warming %s on the traced front: status %d: %.120s: %v", lp.in.keys[k], status, body, err)
			}
		}
	}
	tgt := target{hc: hc, url: entry + "/v1/classify", in: lp.in}
	for _, e := range lp.replay[:min(10, len(lp.replay))] { // connections and caches; cur is -1, so no spans
		if err := tgt.do(ctx, e); err != nil {
			return err
		}
	}
	for i, e := range lp.replay {
		cur.Store(int64(i))
		id := rec.begin("client.request", i, noParent)
		err := tgt.do(ctx, e)
		rec.end(id)
		if err != nil {
			return fmt.Errorf("replayed request %d: %w", i, err)
		}
	}
	cur.Store(-1)

	rec.nest()
	spans := rec.snapshot()
	self := medianByName(spans, selfTimes(spans))
	durs := make([]int64, len(spans))
	for i, s := range spans {
		durs[i] = s.dur()
	}
	whole := medianByName(spans, durs)
	out["client.traced_req_ms"] = whole["client.request"]
	out["client.hop_ms"] = self["client.request"]
	out["shard.hop_ms"] = self["shard.front"]
	out["serve.handler_ms"] = whole["serve.handler"]
	return nil
}

// shardclientHop prices the shard-aware client: Client.Classify against
// a raw POST of the same request to the owner it routes to.
func (lp *layerPass) shardclientHop(ctx context.Context, out map[string]float64) error {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	sc, err := shardclient.New(ctx, lp.st.entry, shardclient.Options{HTTPClient: hc})
	if err != nil {
		return err
	}
	var routed, raw []float64
	for _, e := range lp.replay[:min(100, len(lp.replay))] {
		key := lp.in.keys[e.Key]
		var images [][]float64
		for _, img := range lp.in.images[e.Key][e.Body*lp.in.per : (e.Body+1)*lp.in.per] {
			images = append(images, img.Data())
		}
		t0 := time.Now()
		if _, err := sc.Classify(ctx, key.Model, "QUQ", key.Bits, key.Regime, images); err != nil {
			return err
		}
		t1 := time.Now()
		status, _, body, err := post(ctx, hc, sc.OwnerSet(key.String())[0]+"/v1/classify", lp.in.bodies[e.Key][e.Body])
		t2 := time.Now()
		if err := firstErr(err, lp.in.verify(e.Key, e.Body, status, body)); err != nil {
			return err
		}
		routed = append(routed, ms(t1.Sub(t0).Seconds()))
		raw = append(raw, ms(t2.Sub(t1).Seconds()))
	}
	out["shardclient.hop_ms"] = median(routed) - median(raw)
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Forward classes: every nanosecond of a traced forward lands in
// exactly one.
const (
	clsLinear = iota // weight GEMMs through the vit.GEMMEngine seam
	clsTap           // inside the fake-quantizer taps, qm.Acts[site].Apply
	clsAttn          // attention score and context GEMMs
	clsSFU           // softmax, GELU, LayerNorm
	clsGlue          // QKV split, residual adds, patchify, everything else
	numClasses
)

var classSpan = [numClasses]string{"vit.linear", "ptq.tap", "vit.attn_gemm", "vit.sfu", "vit.glue"}

// gapClass attributes the time since the previous tap or engine event
// to the computation that sits before the named site in vit's forward.
func gapClass(site string) int {
	switch site {
	case "ln1.out", "ln2.out", "head.in", "attn.softmax_out", "mlp.gelu_out":
		return clsSFU
	case "attn.softmax_in", "attn.proj_in":
		return clsAttn
	}
	return clsGlue
}

// forwardTracer runs a quantized forward with the quantizing tap
// re-composed from qm.Acts exactly as QuantizedModel.ForwardOpts does,
// and an engine that times the weight GEMM it delegates; the gaps
// between consecutive events are the rest of the forward.
type forwardTracer struct {
	qm     *ptq.QuantizedModel
	engine vit.GEMMEngine // the integer engine when the model serves on it; nil for float
	last   time.Time
	total  [numClasses]time.Duration
	taps   int
	segs   []segment
}

type segment struct {
	class      int
	start, end time.Time
}

func (t *forwardTracer) mark(class int) {
	now := time.Now()
	t.total[class] += now.Sub(t.last)
	t.segs = append(t.segs, segment{class, t.last, now})
	t.last = now
}

func (t *forwardTracer) tap(site vit.Site, x *tensor.Tensor) *tensor.Tensor {
	t.mark(gapClass(site.Name))
	if tq, ok := t.qm.Acts[site.Key()]; ok {
		x = tq.Apply(x)
		t.taps++
		t.mark(clsTap)
	}
	return x
}

// Linear implements vit.GEMMEngine.
func (t *forwardTracer) Linear(site vit.Site, l *vit.Linear, dst, x *tensor.Tensor) bool {
	t.mark(clsGlue)
	if t.engine == nil || !t.engine.Linear(site, l, dst, x) {
		l.ApplyInto(dst, x)
	}
	t.mark(clsLinear)
	return true
}

func (t *forwardTracer) forward(img *tensor.Tensor) (*tensor.Tensor, time.Time, time.Time) {
	t.total, t.taps, t.segs = [numClasses]time.Duration{}, 0, t.segs[:0]
	start := time.Now()
	t.last = start
	logits := t.qm.Model.Forward(img, vit.ForwardOpts{Tap: t.tap, Engine: t})
	t.mark(clsGlue)
	return logits, start, t.last
}

func newForwardTracer(qm *ptq.QuantizedModel) (*forwardTracer, error) {
	t := &forwardTracer{qm: qm, segs: make([]segment, 0, 512)}
	if qm.IntPath() {
		e, err := ptq.NewIntEngine(qm)
		if err != nil {
			return nil, err
		}
		t.engine = e
	}
	return t, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// layersDirect takes the replayed requests through the layers under the
// HTTP handler, one direct call each on the same images: the handler on
// a recorder, a batcher with the server's settings, ForwardBatch, one
// untraced and one traced Forward, and the unquantized forward. The
// differences between neighbours are what each layer adds.
func (lp *layerPass) layersDirect(ctx context.Context, rec *recorder, out map[string]float64) (err error) {
	bat := serve.NewBatcher(serve.BatcherOptions{}, nil, nil)
	defer func() { err = errors.Join(err, bat.Drain(ctx)) }()
	tracers := make([]*forwardTracer, len(lp.models))
	for k, qm := range lp.models {
		t, err := newForwardTracer(qm)
		if err != nil {
			return err
		}
		tracers[k] = t
	}
	var handler, batcher, fwdBatch, fwd, traced, fp, taps []float64
	var class [numClasses][]float64
	for i, e := range lp.replay[:min(lp.direct, len(lp.replay))] {
		qm, tr := lp.models[e.Key], tracers[e.Key]
		images := lp.in.images[e.Key][e.Body*lp.in.per : (e.Body+1)*lp.in.per]
		timed := func(name string, f func() error) (float64, error) {
			id := rec.begin(name, i, noParent)
			err := f()
			return float64(rec.end(id)) / 1e6, err
		}

		d, err := timed("direct.serve.handler", func() error {
			rr := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(lp.in.bodies[e.Key][e.Body]))
			lp.owners[e.Key].srv.Handler().ServeHTTP(rr, req.WithContext(ctx))
			return lp.in.verify(e.Key, e.Body, rr.Code, rr.Body.Bytes())
		})
		if err != nil {
			return err
		}
		handler = append(handler, d)

		d, err = timed("direct.serve.batcher", func() error {
			items, err := bat.SubmitBudget(ctx, lp.in.keys[e.Key].String(), qm, images, 0)
			if err != nil {
				return err
			}
			return serve.Await(ctx, items)
		})
		if err != nil {
			return err
		}
		batcher = append(batcher, d)

		d, _ = timed("direct.ptq.forward_batch", func() error { qm.ForwardBatch(images, 0); return nil })
		fwdBatch = append(fwdBatch, d)

		var want *tensor.Tensor
		d, _ = timed("direct.ptq.forward", func() error { want = qm.Forward(images[0]); return nil })
		fwd = append(fwd, d)

		got, start, end := tr.forward(images[0])
		if !sameBits(got.Data(), want.Data()) {
			return fmt.Errorf("%s: the traced forward's logits differ from qm.Forward's; its timings describe a different computation", lp.in.keys[e.Key])
		}
		parent := rec.add(span{Name: "ptq.forward", Start: int64(start.Sub(rec.epoch)), End: int64(end.Sub(rec.epoch)), Parent: noParent, Req: i})
		for _, s := range tr.segs {
			rec.add(span{Name: classSpan[s.class], Start: int64(s.start.Sub(rec.epoch)), End: int64(s.end.Sub(rec.epoch)), Parent: parent, Req: i})
		}
		traced = append(traced, ms(end.Sub(start).Seconds()))
		taps = append(taps, float64(tr.taps))
		for c := range class {
			class[c] = append(class[c], ms(tr.total[c].Seconds()))
		}

		d, _ = timed("direct.vit.fp_forward", func() error { qm.Model.Forward(images[0], vit.ForwardOpts{}); return nil })
		fp = append(fp, d)
	}
	out["serve.wire_ms"] = median(handler) - median(batcher)
	out["serve.sched_ms"] = median(batcher) - median(fwdBatch)
	out["ptq.forward_batch_ms"] = median(fwdBatch)
	out["ptq.forward_ms"] = median(fwd)
	out["ptq.trace_overhead_share"] = median(traced)/median(fwd) - 1
	out["ptq.taps_per_img"] = median(taps)
	out["ptq.tap_ms"] = median(class[clsTap])
	out["vit.linear_ms"] = median(class[clsLinear])
	out["vit.attn_gemm_ms"] = median(class[clsAttn])
	out["vit.sfu_ms"] = median(class[clsSFU])
	out["vit.glue_ms"] = median(class[clsGlue])
	out["vit.fp_forward_ms"] = median(fp)
	out["ptq.allocs_per_img"], out["ptq.bytes_per_img"] = forwardAllocs(lp.models[0], lp.in.images[0][0])
	return nil
}

// forwardAllocs counts heap allocations and bytes per forward from
// MemStats deltas over single-goroutine forwards. Other goroutines (a
// front's prober) can add to a delta, never take away, so the smallest
// of a few repetitions is the forward's own count.
func forwardAllocs(qm *ptq.QuantizedModel, img *tensor.Tensor) (allocs, bytes float64) {
	const n = 8
	allocs, bytes = math.Inf(1), math.Inf(1)
	var before, after runtime.MemStats
	for rep := 0; rep < 3; rep++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			qm.Forward(img)
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, math.Round(float64(after.Mallocs-before.Mallocs)/n))
		bytes = min(bytes, math.Round(float64(after.TotalAlloc-before.TotalAlloc)/n))
	}
	return allocs, bytes
}
