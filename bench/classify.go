package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"time"

	"quq/internal/ptq"
	"quq/internal/rng"
	"quq/internal/serve"
	"quq/internal/shardclient"
)

// params is what one run is asked to do. The window lengths are fields
// so the tests can shrink them.
type params struct {
	seed     uint64
	window   time.Duration // the measured time, --seconds
	warm     time.Duration // discarded warm-up before each measured window
	setups   int           // set-ups timed (the last one is kept and measured on)
	e2e      bool          // report the end-to-end metrics
	layers   bool          // make the traced pass and report the per-layer metrics
	scratch  string        // directory for snapshot dirs
	golden   map[string]map[string]goldenKey
	logf     func(format string, args ...any)
	coldKeys []keySpec // cold-keys key set; nil means the full 20
}

// result is what one workload run found.
type result struct {
	Workload  string
	E2E       map[string]float64
	Layers    map[string]float64
	Phases    []phase
	Attempted int
	Failed    int
	Problems  []string // failed checks that are not a request: golden drift, a traced forward that changed the logits
	Spans     []span
	Golden    map[string]goldenKey
}

func (r *result) problemf(format string, args ...any) {
	r.Failed++
	r.Attempted++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// account folds a phase's request counts into the run's failure fields.
func (r *result) account(p phase) {
	r.Phases = append(r.Phases, p)
	r.Attempted += p.Sent + p.WarmSent
	r.Failed += p.Failed + p.WarmFailed
}

// classifyWorkload describes the three workloads that classify images
// on keys quantized in set-up.
type classifyWorkload struct {
	name     string
	workers  int
	replicas int // > 0: a quq-shard front with this replication factor takes the requests
	intPath  bool
	keys     []keySpec // in Zipf rank order
	per      int       // images per request
	bodies   int       // distinct request bodies per key
	rate     float64   // > 0: an open-loop phase at this rate precedes the closed-loop one
	sloMs    float64   // fixed latency limit on the open-loop phase
	replay   int       // requests the traced pass replays through the hops
	direct   int       // of those, how many it also takes through the layers by direct call
}

// rateShare is the part of the window fleet-singles spends in its
// open-loop phase; the rest saturates.
const rateShare = 0.6

var classifyWorkloads = []classifyWorkload{
	{
		name: "fleet-singles", workers: 3, replicas: 2,
		keys: []keySpec{{"ViT-Nano", 6, "full"}, {"ViT-Nano", 4, "full"}, {"ViT-Nano", 8, "full"}, {"ViT-Nano", 6, "partial"}},
		per:  1, bodies: 32, rate: 150, sloMs: 15, replay: 300, direct: 300,
	},
	{
		name: "batch-float", workers: 1,
		keys: []keySpec{{"ViT-S", 6, "full"}},
		per:  4, bodies: 8, replay: 30, direct: 16,
	},
	{
		name: "batch-int", workers: 1, intPath: true,
		keys: []keySpec{{"ViT-S", 6, "full"}},
		per:  4, bodies: 8, replay: 30, direct: 16,
	},
}

// setUp boots the workload's stack and quantizes its keys the way a
// deployment would: through the shard-aware client and the front when
// there is one (which fans each key out to its R owners), else straight
// to the worker. It returns the whole set-up time and the part spent
// quantizing.
func (w classifyWorkload) setUp(ctx context.Context, in *inputs) (*stack, time.Duration, time.Duration, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	start := time.Now()
	port := 0
	if w.replicas > 0 {
		port = fleetPort
	}
	st, err := bootStack(serve.Config{Registry: serve.RegistryOptions{IntPath: w.intPath}}, w.workers, w.replicas, port)
	if err != nil {
		return nil, 0, 0, err
	}
	var sc *shardclient.Client
	if w.replicas > 0 {
		if sc, err = shardclient.New(ctx, st.entry, shardclient.Options{HTTPClient: hc}); err != nil {
			return nil, 0, 0, errors.Join(err, st.close())
		}
	}
	qStart := time.Now()
	for k, key := range w.keys {
		if sc != nil {
			_, err = sc.Quantize(ctx, key.Model, "QUQ", key.Bits, key.Regime)
		} else {
			var status int
			var body []byte
			status, _, body, err = post(ctx, hc, st.entry+"/v1/quantize", in.quantize[k])
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %.120s", status, body)
			}
		}
		if err != nil {
			return nil, 0, 0, errors.Join(fmt.Errorf("quantizing %s: %w", key, err), st.close())
		}
	}
	end := time.Now()
	return st, end.Sub(start), end.Sub(qStart), nil
}

// served returns the quantized model one of the stack's workers holds
// for key, and that worker.
func (st *stack) served(ctx context.Context, key serve.Key) (*ptq.QuantizedModel, *worker, error) {
	for _, w := range st.workers {
		for _, e := range w.srv.Registry().Entries() {
			if e.Key == key.String() && e.Ready {
				qm, _, err := w.srv.Registry().Get(ctx, key)
				return qm, w, err
			}
		}
	}
	return nil, nil, fmt.Errorf("no worker holds %s", key)
}

// liveHeapMiB is the heap still reachable after two collections (the
// second clears what sync.Pool victim caches kept through the first).
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func (w classifyWorkload) run(ctx context.Context, p params) (res *result, err error) {
	res = &result{Workload: w.name, E2E: map[string]float64{}}
	src := rng.New(p.seed)
	in, err := makeInputs(src.Split(), w.keys, w.per, w.bodies)
	if err != nil {
		return nil, err
	}

	var st *stack
	var setupS, keysPerS []float64
	for i := 0; i < p.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		var total, quantizing time.Duration
		if st, total, quantizing, err = w.setUp(ctx, in); err != nil {
			return nil, err
		}
		setupS = append(setupS, total.Seconds())
		keysPerS = append(keysPerS, float64(len(w.keys))/quantizing.Seconds())
	}
	defer func() { err = errors.Join(err, st.close()) }()
	res.E2E["setup_s"] = median(setupS)
	res.E2E["keys_per_s"] = median(keysPerS)
	p.logf("set-up x%d: median %.3fs (boot + quantize %d keys), %.3f keys/s", p.setups, median(setupS), len(w.keys), median(keysPerS))

	models := make([]*ptq.QuantizedModel, len(w.keys))
	owners := make([]*worker, len(w.keys))
	for k, key := range w.keys {
		if models[k], owners[k], err = st.served(ctx, key.key()); err != nil {
			return nil, err
		}
		if models[k].IntPath() != w.intPath {
			return nil, fmt.Errorf("%s: integer engine installed = %v, workload wants %v", key, models[k].IntPath(), w.intPath)
		}
	}
	in.expect(models)
	if err := in.checkIntVsFloat(); err != nil {
		res.problemf("%v", err)
	}
	res.checkGolden(p, in)

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	tgt := target{hc: hc, url: st.entry + "/v1/classify", in: in, perReq: w.per}
	seqs := [][]schedEntry{closedSequence(src.Split(), in, 4096), closedSequence(src.Split(), in, 4096)}
	before := st.counters()
	var latency, throughput phase
	var openSched []schedEntry
	if w.rate > 0 {
		rateWindow := time.Duration(float64(p.window) * rateShare)
		openSched = openSchedule(src.Split(), in, w.rate, p.warm+rateWindow)
		latency = runOpen(ctx, tgt, "rate", openSched, w.rate, p.warm, rateWindow, 2)
		res.account(latency)
		p.logf("%s", latency.describe())
		throughput = runClosed(ctx, tgt, "sat", seqs, p.warm, p.window-rateWindow)
	} else {
		throughput = runClosed(ctx, tgt, "closed", seqs, p.warm, p.window)
		latency = throughput
	}
	res.account(throughput)
	p.logf("%s", throughput.describe())
	delta := st.counters().sub(before)
	res.E2E["img_per_s"] = throughput.BestImgPerS
	res.E2E["req_p50_ms"] = latency.BestP50
	res.E2E["req_p90_ms"] = latency.BestP90
	res.E2E["live_heap_mb"] = liveHeapMiB()

	if p.layers {
		replay := openSched
		if len(replay) == 0 {
			replay = seqs[0]
		}
		lp := layerPass{
			st: st, replicas: w.replicas, in: in, models: models, owners: owners,
			replay: replay[:min(w.replay, len(replay))], direct: w.direct,
			latency: latency, sloMs: w.sloMs, delta: delta, seed: p.seed, scratch: p.scratch,
		}
		lp.run(ctx, res)
	}
	return res, nil
}

// checkGolden compares the float logits' fingerprint with golden.json
// when the run uses the seed the file was made with, so arithmetic
// drift across changes is a failed operation, not a silent one.
func (r *result) checkGolden(p params, in *inputs) {
	r.Golden = in.fingerprint()
	want, ok := p.golden[r.Workload]
	if !ok || p.seed != defaultSeed {
		return
	}
	for key, got := range r.Golden {
		if !reflect.DeepEqual(got, want[key]) {
			r.problemf("%s: float logits drifted from golden.json (argmax/sha256 now %v, committed %v)", key, got, want[key])
		}
	}
}
