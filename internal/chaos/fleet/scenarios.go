package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quq/internal/chaos"
	"quq/internal/data"
	"quq/internal/serve"
	"quq/internal/vit"
)

// post sends one JSON body through the shared request helper.
func post(ctx context.Context, url string, body any) (Reply, error) {
	return Do(ctx, http.MethodPost, url, body, nil)
}

// scenarioResetFailover replays a connection-reset storm against the
// shard owning one key and checks reply conservation: the victim's
// resets burn the retry schedule (seeded backoff on the fake clock),
// the shard is ejected, the key fails over — and still every request
// sent gets exactly one answer, with backend completions equal to
// client successes.
func scenarioResetFailover(ctx context.Context, seed uint64, opts Options, rep *chaos.Report) error {
	f, err := Boot(ctx, 3, 1, baseConfig(seed), &chaos.Script{Name: "reset-failover", Seed: seed}, opts)
	if err != nil {
		return err
	}
	defer f.Close()

	img := data.Images(vit.ViTNano, 1, seed)[0].Data()
	selections := []Selection{
		{Model: "ViT-Nano", Method: "QUQ", Bits: 6},
		{Model: "ViT-Nano", Method: "BaseQ", Bits: 6},
		{Model: "ViT-Nano", Method: "BaseQ", Bits: 4},
		{Model: "ViT-Nano", Method: "FQ-ViT", Bits: 6},
	}
	sent, answered, clientOK := 0, 0, 0
	victim := ""
	for i, sel := range selections {
		sent++
		r, err := post(ctx, f.Base+"/v1/classify", ClassifyBody(sel, img))
		if err != nil {
			return fmt.Errorf("warm classify %d: %w", i, err)
		}
		answered++
		if r.Status == http.StatusOK {
			clientOK++
		}
		if i == 0 {
			victim = r.ServedBy()
		}
	}

	// Every further attempt against the first key's shard resets; the
	// front must retry, eject, and fail over without losing a reply.
	f.Faults.AddRule(chaos.Rule{Host: victim, PathPrefix: "/v1/classify", Fault: chaos.FaultReset})
	for i := 0; i < 8; i++ {
		sent++
		r, err := post(ctx, f.Base+"/v1/classify", ClassifyBody(selections[0], img))
		if err != nil {
			return fmt.Errorf("failover classify %d: %w", i, err)
		}
		answered++
		if r.Status == http.StatusOK {
			clientOK++
		}
		if r.ServedBy() == victim {
			// A reply from the reset-storm shard would mean the rule did
			// not fire; surface it through the conservation counts.
			clientOK--
		}
	}
	rep.CheckConservation(sent, answered, completions(f.Faults, "/v1/classify", http.StatusOK), clientOK)
	return nil
}

// scenarioCalibrateOnce checks the calibrate-exactly-once contract
// under four spoilers: a first client that disconnects mid-build (the
// detached build must finish and serve the next caller from cache), a
// transient calibration failure (the poisoned entry must be evicted and
// rebuilt exactly once more — not zero, not per subsequent request), and
// two overlaps that make an owner busy — three quantizes of one cold
// key, and a classify of a warm key behind another held in the owner's
// forward. A busy owner keeps its keys: at R = 1 every other worker
// would calibrate them afresh.
func scenarioCalibrateOnce(ctx context.Context, seed uint64, opts Options, rep *chaos.Report) error {
	selA := Selection{Model: "ViT-Nano", Method: "BaseQ", Bits: 6}
	selB := Selection{Model: "ViT-Nano", Method: "QUQ", Bits: 6}
	selC := Selection{Model: "ViT-Nano", Method: "BaseQ", Bits: 4}
	selD := Selection{Model: "ViT-Nano", Method: "BaseQ", Bits: 8}
	var keyA, keyB, keyC, keyD string
	for _, k := range []struct {
		sel Selection
		key *string
	}{{selA, &keyA}, {selB, &keyB}, {selC, &keyC}, {selD, &keyD}} {
		var err error
		if *k.key, err = k.sel.Key(); err != nil {
			return err
		}
	}

	var mu sync.Mutex
	builds := map[string]int{}
	started := make(chan struct{})
	release := make(chan struct{})
	releaseC := make(chan struct{})
	releaseD := make(chan struct{})
	var holdingD atomic.Bool
	cfg := baseConfig(seed)
	cfg.Registry.BuildHook = func(k serve.Key) error {
		ks := k.String()
		mu.Lock()
		builds[ks]++
		n := builds[ks]
		mu.Unlock()
		switch {
		case ks == keyA && n == 1:
			close(started) // the disconnecting client is watching
			<-release
		case ks == keyB && n == 1:
			return errors.New("chaos: injected calibration failure")
		case ks == keyC:
			<-releaseC // every build of key C waits until all three quantizes are in flight
		}
		return nil
	}
	cfg.Batcher.ForwardHook = func(key string) {
		if key == keyD && holdingD.CompareAndSwap(false, true) {
			<-releaseD // the first forward of key D waits for the overlap
		}
	}
	f, err := Boot(ctx, 3, 1, cfg, &chaos.Script{Name: "calibrate-once", Seed: seed}, opts)
	if err != nil {
		return err
	}
	defer f.Close()

	// Key A: the first caller hits the owning backend directly and
	// disconnects while its build is in flight. The build is detached
	// from the caller, so it must complete and serve the next request
	// from cache.
	owner, ok := f.Front.Ring().Owner(keyA)
	if !ok {
		return errors.New("empty ring")
	}
	cctx, cancel := context.WithCancel(ctx)
	firstDone := make(chan error, 1)
	go func() {
		_, err := post(cctx, owner.Addr()+"/v1/quantize", selA)
		firstDone <- err
	}()
	<-started
	cancel()
	if err := <-firstDone; err == nil {
		return errors.New("disconnected quantize reported success")
	}
	close(release)

	// The second caller goes through the front-end; the ring is
	// untouched, so it lands on the same backend and must find the
	// abandoned build's entry, not start a second calibration.
	r, err := post(ctx, f.Base+"/v1/quantize", selA)
	if err != nil {
		return err
	}
	if r.Status != http.StatusOK {
		return fmt.Errorf("quantize after disconnect: status %d", r.Status)
	}

	// Key B: first build fails (500 to the client — relayed, never
	// retried by the front), the entry is evicted, the retry rebuilds.
	if r, err = post(ctx, f.Base+"/v1/quantize", selB); err != nil {
		return err
	}
	if r.Status != http.StatusInternalServerError {
		return fmt.Errorf("failing calibration: status %d, want 500", r.Status)
	}
	if r, err = post(ctx, f.Base+"/v1/quantize", selB); err != nil {
		return err
	}
	if r.Status != http.StatusOK {
		return fmt.Errorf("calibration retry: status %d, want 200", r.Status)
	}

	// waitFor spins until the front is proxying n requests or one of
	// those sent has returned.
	waitFor := func(n int64, done chan error) error {
		for len(done) == 0 {
			var inflight int64
			for _, b := range f.Front.Ring().Backends() {
				inflight += b.Inflight()
			}
			if inflight >= n {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			runtime.Gosched()
		}
		return nil
	}
	send := func(path string, body any, done chan error) {
		r, err := post(ctx, f.Base+path, body)
		if err == nil && r.Status != http.StatusOK {
			err = fmt.Errorf("%s: status %d, want 200", path, r.Status)
		}
		done <- err
	}

	// Key C: three quantizes of the cold key overlap, each sent once the
	// one before it is in flight. The owner's registry folds them into
	// its one build; a router that spilled the busy owner's key would
	// send the second and third to successors, which calibrate it again.
	quantized := make(chan error, 3)
	for i := int64(1); i <= 3; i++ {
		go send("/v1/quantize", selC, quantized)
		if err := waitFor(i, quantized); err != nil {
			return err
		}
	}
	close(releaseC)
	for i := 0; i < 3; i++ {
		if err := <-quantized; err != nil {
			return fmt.Errorf("overlapping quantize: %w", err)
		}
	}

	// Key D: warm on its owner, then a classify parks inside the owner's
	// forward while a second one overlaps it. The second must wait for
	// the owner, which holds the calibration: at R = 1 any other worker
	// would build the key, so zero new builds means the owner served it.
	classified := make(chan error, 2)
	send("/v1/quantize", selD, classified)
	if err := <-classified; err != nil {
		return fmt.Errorf("warm quantize: %w", err)
	}
	img := data.Images(vit.ViTNano, 1, seed)[0].Data()
	for i := int64(1); i <= 2; i++ {
		go send("/v1/classify", ClassifyBody(selD, img), classified)
		if err := waitFor(i, classified); err != nil {
			return err
		}
	}
	close(releaseD)
	for i := 0; i < 2; i++ {
		if err := <-classified; err != nil {
			return fmt.Errorf("overlapping classify: %w", err)
		}
	}

	mu.Lock()
	snapshot := make(map[string]int, len(builds))
	for k, v := range builds {
		snapshot[k] = v
	}
	mu.Unlock()
	rep.CheckCalibrateOnce(snapshot, map[string]int{keyA: 1, keyB: 2})
	return nil
}

// scenarioBackpressure storms every classify with injected 429s and
// checks the relay contract: the client sees each 429 verbatim (status
// and Retry-After), and the fleet sees exactly one attempt per request
// — a front-end that "helpfully" retries backpressure doubles the
// attempt count and fails here.
func scenarioBackpressure(ctx context.Context, seed uint64, opts Options, rep *chaos.Report) error {
	script := &chaos.Script{Name: "backpressure-storm", Seed: seed, Rules: []chaos.Rule{
		{Method: http.MethodPost, PathPrefix: "/v1/classify", Fault: chaos.Fault429},
	}}
	f, err := Boot(ctx, 3, 1, baseConfig(seed), script, opts)
	if err != nil {
		return err
	}
	defer f.Close()

	img := data.Images(vit.ViTNano, 1, seed)[0].Data()
	const sent = 6
	got429, gotRetryAfter := 0, 0
	for i := 0; i < sent; i++ {
		sel := Selection{Model: "ViT-Nano", Method: "QUQ", Bits: 6}
		if i%2 == 1 {
			sel.Method = "BaseQ"
		}
		r, err := post(ctx, f.Base+"/v1/classify", ClassifyBody(sel, img))
		if err != nil {
			return fmt.Errorf("storm classify %d: %w", i, err)
		}
		if r.Status == http.StatusTooManyRequests {
			got429++
		}
		if r.Header.Get("Retry-After") == "7" {
			gotRetryAfter++
		}
	}
	attempts := f.Faults.Count(http.MethodPost, "/v1/classify", "", chaos.FaultNone, true)
	rep.CheckNeverRetried(sent, attempts, got429, gotRetryAfter)
	return nil
}

// scenarioBoundedRemap ejects one shard via black-holed health probes,
// readmits it after the flap hysteresis clears, and checks the
// consistent-hashing promise at both transitions: only the arcs the
// victim owns ever move, and re-admission restores every key to its
// original owner. The key set is constructed so each shard owns exactly
// keysPerShard keys, keeping the report's counts independent of the
// ephemeral port layout.
func scenarioBoundedRemap(ctx context.Context, seed uint64, opts Options, rep *chaos.Report) error {
	f, err := Boot(ctx, 3, 1, baseConfig(seed), &chaos.Script{Name: "eject-readmit", Seed: seed}, opts)
	if err != nil {
		return err
	}
	defer f.Close()

	ring := f.Front.Ring()
	backends := ring.Backends()
	index := map[string]int{}
	for i, b := range backends {
		index[b.Addr()] = i
	}
	const keysPerShard = 20
	perShard := make([]int, len(backends))
	owners := map[string]int{} // synthetic key -> owning shard index
	for i := 0; len(owners) < keysPerShard*len(backends); i++ {
		if i >= 100000 {
			return errors.New("could not balance synthetic keys across shards")
		}
		key := fmt.Sprintf("chaos-remap-%d", i)
		b, _, err := ring.Route(key, nil)
		if err != nil {
			return err
		}
		if idx := index[b.Addr()]; perShard[idx] < keysPerShard {
			perShard[idx]++
			owners[key] = idx
		}
	}
	pickAll := func() (map[string]int, error) {
		m := make(map[string]int, len(owners))
		for key := range owners {
			b, _, err := ring.Route(key, nil)
			if err != nil {
				return nil, err
			}
			m[key] = index[b.Addr()]
		}
		return m, nil
	}

	before, err := pickAll()
	if err != nil {
		return err
	}
	const victim = 0 // first shard in address order; owns keysPerShard keys by construction
	f.Faults.AddRule(chaos.Rule{Host: hostOf(backends[victim].Addr()), PathPrefix: "/healthz", Fault: chaos.FaultReset})
	f.Front.ProbeNow(ctx) // failAfter=2: one strike
	f.Front.ProbeNow(ctx) // ejected
	during, err := pickAll()
	if err != nil {
		return err
	}
	f.Faults.ClearRules()
	f.Front.ProbeNow(ctx) // okAfter=2: hysteresis holds it out one more round
	f.Front.ProbeNow(ctx) // readmitted
	after, err := pickAll()
	if err != nil {
		return err
	}
	if ring.HealthyCount() != len(backends) {
		return fmt.Errorf("victim not readmitted: healthy=%d", ring.HealthyCount())
	}
	rep.CheckBoundedRemap(before, during, after, victim)
	return nil
}

// scenarioBoundedDrain drives the micro-batcher — the layer drain
// actually waits on — through a drain with every awkward passenger
// aboard: items still waiting in the FIFO behind a pool held inside its
// forwards, a submitter whose context expired (their slots must already
// be free), and a worker that panics mid-forward. Drain must still
// answer every admitted item inside the deadline.
func scenarioBoundedDrain(ctx context.Context, seed uint64, opts Options, rep *chaos.Report) error {
	_ = opts // no proxy in this scenario: drain is a backend-local contract
	reg := serve.NewRegistry(serve.RegistryOptions{Seed: seed, CalibImages: 2}, nil)
	key, err := serve.KeyFromWire("ViT-Nano", "BaseQ", 6, "")
	if err != nil {
		return err
	}
	qm, _, err := reg.Get(ctx, key)
	if err != nil {
		return err
	}

	const workers = 2
	panicked := false
	var bmu sync.Mutex
	gate := make(chan struct{})
	var held atomic.Int64
	bat := serve.NewBatcher(serve.BatcherOptions{
		MaxBatch: 64, QueueCap: 16, Workers: workers,
		ForwardHook: func(string) {
			// Every worker parks in its first forward until the gate
			// opens, so what is submitted behind them waits in the FIFO.
			held.Add(1)
			<-gate
			bmu.Lock()
			first := !panicked
			panicked = true
			bmu.Unlock()
			if first {
				//quq:panic-ok injected fault: the invariant under test is that the batcher converts worker panics to errors
				panic("chaos: injected worker crash")
			}
		},
	}, nil, nil)

	imgs := data.Images(vit.ViTNano, 8, seed+1)
	admitted := 0
	// One image per worker: each takes one and parks on the gate.
	items, err := bat.Submit(ctx, key.String(), qm, imgs[:workers])
	if err != nil {
		return err
	}
	admitted += len(items)
	for held.Load() != workers {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.Gosched()
	}
	waiting, err := bat.Submit(ctx, key.String(), qm, imgs[workers:6])
	if err != nil {
		return err
	}
	admitted += len(waiting)

	cctx, cancel := context.WithCancel(ctx)
	abandoned, err := bat.Submit(cctx, key.String(), qm, imgs[6:8])
	if err != nil {
		cancel()
		return err
	}
	admitted += len(abandoned)
	cancel() // the submitter walks away while its items wait

	dctx, dcancel := context.WithTimeout(ctx, 60*time.Second)
	defer dcancel()
	drained := make(chan error, 1)
	go func() { drained <- bat.Drain(dctx) }()
	close(gate)
	drainErr := <-drained
	all := append(append(append([]*serve.Item{}, items...), waiting...), abandoned...)
	finished := 0
	for _, it := range all {
		select {
		case <-it.Done:
			if it.Out != nil || it.Err != nil {
				finished++
			}
		default:
			// Unfinished after a successful drain: counted as lost.
		}
	}
	rep.CheckBoundedDrain(drainErr == nil, admitted, finished)
	return nil
}

// adminPost drives one membership mutation through the front-end's
// admin surface and decodes its outcome.
func adminPost(ctx context.Context, url, addr string) (epoch uint64, moved int, err error) {
	r, err := post(ctx, url, map[string]string{"addr": addr})
	if err != nil {
		return 0, 0, err
	}
	var out struct {
		Epoch uint64 `json:"epoch"`
		Moved int    `json:"moved"`
	}
	if err := r.JSON(&out); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", url, err)
	}
	return out.Epoch, out.Moved, nil
}

// buildCounter returns a base config whose BuildHook tallies
// calibrations per canonical key, plus a snapshot function.
func buildCounter(seed uint64) (serve.Config, func() map[string]int) {
	var mu sync.Mutex
	builds := map[string]int{}
	cfg := baseConfig(seed)
	cfg.Registry.BuildHook = func(k serve.Key) error {
		mu.Lock()
		builds[k.String()]++
		mu.Unlock()
		return nil
	}
	return cfg, func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		snap := make(map[string]int, len(builds))
		for k, v := range builds {
			snap[k] = v
		}
		return snap
	}
}

// scenarioReplicaDivergence checks the replicated write contract at
// R=2: one quantize through the front calibrates the key on both
// placement owners — and on nobody else, at most R builds fleet-wide —
// and the two replicas then answer the same classify byte-identically.
// A second quantize hits both warm caches without adding builds.
func scenarioReplicaDivergence(ctx context.Context, seed uint64, opts Options, rep *chaos.Report) error {
	cfg, snapshot := buildCounter(seed)
	f, err := Boot(ctx, 3, 2, cfg, &chaos.Script{Name: "replica-divergence", Seed: seed}, opts)
	if err != nil {
		return err
	}
	defer f.Close()

	sel := Selection{Model: "ViT-Nano", Method: "QUQ", Bits: 6}
	key, err := sel.Key()
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ { // second pass must be a fleet-wide cache hit
		r, err := post(ctx, f.Base+"/v1/quantize", sel)
		if err != nil {
			return fmt.Errorf("replicated quantize %d: %w", i, err)
		}
		if r.Status != http.StatusOK {
			return fmt.Errorf("replicated quantize %d: status %d", i, r.Status)
		}
	}

	owners := f.Front.Ring().OwnerN(key, 2)
	if len(owners) != 2 {
		return fmt.Errorf("OwnerN returned %d owners, want 2", len(owners))
	}
	img := data.Images(vit.ViTNano, 1, seed)[0].Data()
	bodies := make([][]byte, len(owners))
	for i, o := range owners {
		r, err := post(ctx, o.Addr()+"/v1/classify", ClassifyBody(sel, img))
		if err != nil {
			return fmt.Errorf("direct classify on replica %d: %w", i, err)
		}
		if r.Status != http.StatusOK {
			return fmt.Errorf("direct classify on replica %d: status %d", i, r.Status)
		}
		bodies[i] = r.Body
	}
	rep.CheckCalibrateAtMostR(snapshot(), 2)
	rep.CheckReplicasIdentical(len(owners), bytes.Equal(bodies[0], bodies[1]))

	// Mixed-backend equivalence: flip the second owner's backend to the
	// integer weight path — the in-process equivalent of restarting it
	// with -int-path — and require the replicas to stay interchangeable
	// for requantized outputs: identical argmax, and logits byte-identical
	// after requantization onto the 2^-16 grid. Raw float64 logits
	// legitimately differ at the ~1 ulp level between the backends (the
	// int path sums exactly then scales once; the float path rounds per
	// accumulation step), which is why this check requantizes instead of
	// comparing response bodies.
	intBackend, err := f.BackendAt(owners[1].Addr())
	if err != nil {
		return err
	}
	if n, err := intBackend.Srv.SetIntPath(true); err != nil || n < 1 {
		return fmt.Errorf("enabling int path on %s: toggled %d entries, err %v", intBackend.Host, n, err)
	}
	args := make([]int, len(owners))
	logits := make([][]float64, len(owners))
	for i, o := range owners {
		r, err := post(ctx, o.Addr()+"/v1/classify", ClassifyBody(sel, img))
		if err != nil {
			return fmt.Errorf("mixed-backend classify on replica %d: %w", i, err)
		}
		out, err := r.Classified(1)
		if err != nil {
			return fmt.Errorf("mixed-backend classify on replica %d: %w", i, err)
		}
		args[i] = out.Results[0].ArgMax
		logits[i] = out.Results[0].Logits
	}
	identical := args[0] == args[1] && len(logits[0]) == len(logits[1]) && len(logits[0]) > 0
	if identical {
		for c := range logits[0] {
			if math.Float64bits(requantGrid(logits[0][c])) != math.Float64bits(requantGrid(logits[1][c])) {
				identical = false
				break
			}
		}
	}
	rep.CheckReplicasIdentical(len(owners), identical)
	return nil
}

// requantGrid snaps a logit onto the 2^-16 grid, normalizing signed zero
// — the cross-backend contract requantized outputs are held to.
func requantGrid(v float64) float64 {
	q := math.RoundToEven(math.Ldexp(v, 16))
	if q == 0 {
		return 0
	}
	return math.Ldexp(q, -16)
}

// scenarioReplicaFailover checks that replication turns a worker death
// into a non-event for calibrated keys: after a replicated warm, a
// reset storm kills the primary owner and every subsequent read is
// answered by the surviving replica from its warm cache — zero new
// calibrations, zero answers from the corpse.
func scenarioReplicaFailover(ctx context.Context, seed uint64, opts Options, rep *chaos.Report) error {
	cfg, snapshot := buildCounter(seed)
	f, err := Boot(ctx, 3, 2, cfg, &chaos.Script{Name: "replica-failover", Seed: seed}, opts)
	if err != nil {
		return err
	}
	defer f.Close()

	sel := Selection{Model: "ViT-Nano", Method: "BaseQ", Bits: 6}
	key, err := sel.Key()
	if err != nil {
		return err
	}
	if r, err := post(ctx, f.Base+"/v1/quantize", sel); err != nil || r.Status != http.StatusOK {
		return fmt.Errorf("replicated warm: %v (status %d)", err, r.Status)
	}
	warmBuilds := snapshot()[key]

	owners := f.Front.Ring().OwnerN(key, 2)
	if len(owners) != 2 {
		return fmt.Errorf("OwnerN returned %d owners, want 2", len(owners))
	}
	victim := hostOf(owners[0].Addr())
	f.Faults.AddRule(chaos.Rule{Host: victim, PathPrefix: "/v1/classify", Fault: chaos.FaultReset})

	img := data.Images(vit.ViTNano, 1, seed)[0].Data()
	const reads = 6
	readsOK := 0
	for i := 0; i < reads; i++ {
		r, err := post(ctx, f.Base+"/v1/classify", ClassifyBody(sel, img))
		if err != nil {
			return fmt.Errorf("failover read %d: %w", i, err)
		}
		if r.Status == http.StatusOK && r.ServedBy() != victim {
			readsOK++
		}
	}
	rep.CheckZeroLostKeys(reads, readsOK, snapshot()[key]-warmBuilds)
	return nil
}

// scenarioMembershipElastic drives the fleet through its elastic
// lifecycle over the admin surface — join a cold backend, drain the
// member owning a calibrated key, abruptly remove another — and checks
// that the epoch advances monotonically, the drain re-homes the key
// before departure by copying its snapshot (no build runs across the
// drain), and the key keeps serving warm afterwards.
func scenarioMembershipElastic(ctx context.Context, seed uint64, opts Options, rep *chaos.Report) error {
	cfg, snapshot := buildCounter(seed)
	f, err := Boot(ctx, 2, 1, cfg, &chaos.Script{Name: "membership-elastic", Seed: seed}, opts)
	if err != nil {
		return err
	}
	defer f.Close()
	epochs := []uint64{f.Front.Ring().Epoch()}

	sel := Selection{Model: "ViT-Nano", Method: "QUQ", Bits: 6}
	key, err := sel.Key()
	if err != nil {
		return err
	}
	if r, err := post(ctx, f.Base+"/v1/quantize", sel); err != nil || r.Status != http.StatusOK {
		return fmt.Errorf("warm: %v (status %d)", err, r.Status)
	}
	owner, ok := f.Front.Ring().Owner(key)
	if !ok {
		return errors.New("empty ring")
	}

	// Join a cold third backend through the admin surface.
	third, err := f.StartBackend(ctx, cfg)
	if err != nil {
		return fmt.Errorf("starting late backend: %w", err)
	}
	epoch, _, err := adminPost(ctx, f.Base+"/admin/join", third.Host)
	if err != nil {
		return err
	}
	epochs = append(epochs, epoch)

	// Drain the owner: its one calibrated key must re-home first.
	beforeDrain := snapshot()[key]
	epoch, moved, err := adminPost(ctx, f.Base+"/admin/drain", hostOf(owner.Addr()))
	if err != nil {
		return err
	}
	epochs = append(epochs, epoch)
	drainedBuilds := snapshot()[key]

	// The key keeps serving — warm, off a survivor, no recalibration.
	img := data.Images(vit.ViTNano, 1, seed)[0].Data()
	lost := 0
	r, err := post(ctx, f.Base+"/v1/classify", ClassifyBody(sel, img))
	if err != nil {
		return fmt.Errorf("post-drain read: %w", err)
	}
	if r.Status != http.StatusOK || r.ServedBy() == hostOf(owner.Addr()) {
		lost++
	}
	lost += snapshot()[key] - drainedBuilds

	// Abrupt leave of a remaining original member still bumps the epoch.
	for _, b := range f.Backends[:2] {
		if b.Host != hostOf(owner.Addr()) {
			epoch, _, err = adminPost(ctx, f.Base+"/admin/leave", b.Host)
			if err != nil {
				return err
			}
			epochs = append(epochs, epoch)
			break
		}
	}
	rep.CheckElasticMembership(epochs, moved, lost, drainedBuilds-beforeDrain)
	return nil
}

// scenarioOverloadShed drives the work-conserving batcher and admission
// control from idle through overload and back on a fake clock, and
// checks the latency-SLO invariant:
//
//   - a lone single on an idle worker starts its forward with zero
//     clock advance — nothing waits for company — and sparse singles
//     finish inside the default budget;
//   - with the queue backed up behind gated workers, an impatient probe
//     sent through the front is shed with 429 before taking a queue
//     slot, while the lenient backdrop (explicit wide budget, carried by
//     the front) is admitted, completes, and coalesces: its takes hold
//     more than one image on average;
//   - after the overload a lone single starts at once again, and the
//     shed counter shows up in the front-end's merged /metrics view.
//
// Every figure in the report — request counts, start delays, shed
// tallies, queue depths — is script-determined: the injected clock
// makes service times exact, so two replays render byte-identical
// verdicts.
func scenarioOverloadShed(ctx context.Context, seed uint64, opts Options, rep *chaos.Report) error {
	clk := chaos.NewFake()
	gate := make(chan struct{})
	var block atomic.Bool
	var hookAt atomic.Int64 // fake-clock time the latest forward started, ns
	cfg := baseConfig(seed)
	cfg.Batcher = serve.BatcherOptions{
		MaxBatch: 4, QueueCap: 64, Workers: 2,
		LatencyBudget: 20 * time.Millisecond,
		ForwardHook: func(string) {
			hookAt.Store(clk.Now().UnixNano())
			if block.Load() {
				<-gate
			}
			// The fake clock advances instantly and only fails on a
			// cancelled scenario context, at which point the forward's
			// outcome is moot.
			//quq:errdrop-ok fake-clock sleep cannot fail except on scenario teardown
			_ = clk.Sleep(ctx, 5*time.Millisecond)
		},
	}
	cfg.Governor = serve.GovernorOptions{Clock: clk}
	f, err := Boot(ctx, 1, 1, cfg, &chaos.Script{Name: "overload-shed", Seed: seed}, opts)
	if err != nil {
		return err
	}
	defer f.Close()
	backend := f.Backends[0]
	sel := Selection{Model: "ViT-Nano", Method: "QUQ", Bits: 6}
	imgs := data.Images(vit.ViTNano, 12, seed)
	flat := make([][]float64, len(imgs))
	for i, img := range imgs {
		flat[i] = img.Data()
	}
	multi := func(n int) map[string]any {
		return map[string]any{
			"model": sel.Model, "method": sel.Method, "bits": sel.Bits,
			"images": flat[:n],
		}
	}

	// Warm the key so classify latency is pure serving, not calibration.
	if r, err := post(ctx, f.Base+"/v1/quantize", sel); err != nil || r.Status != http.StatusOK {
		return fmt.Errorf("warm quantize: status %v: %w", r.Status, err)
	}

	admitted, withinBudget := 0, 0
	var loneStartDelay time.Duration
	// timed sends one request that has to be admitted and scores it
	// against its budget on the fake clock — service time is exactly the
	// injected sleeps. An answer other than 200 has missed its budget:
	// that is a verdict for the report, and the replay goes on.
	timed := func(what string, budget time.Duration, url string, body any, header http.Header) error {
		start := clk.Now()
		r, err := Do(ctx, http.MethodPost, url, body, header)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		admitted++
		if r.Status == http.StatusOK && clk.Now().Sub(start) <= budget {
			withinBudget++
		}
		return nil
	}

	// lone sends one single on an idle pool and keeps the largest
	// fake-clock advance between its send and its forward's start.
	lone := func(what string) error {
		start := clk.Now()
		if err := timed(what, cfg.Batcher.LatencyBudget, f.Base+"/v1/classify", ClassifyBody(sel, flat[0]), nil); err != nil {
			return err
		}
		loneStartDelay = max(loneStartDelay, time.Duration(hookAt.Load()-start.UnixNano()))
		return nil
	}

	// Phase 1 — sparse singles, each started by the first free worker.
	for i := 0; i < 2; i++ {
		if err := lone("sparse classify"); err != nil {
			return err
		}
	}

	// Phase 2 — a 4-image request on two idle workers, inside budget.
	if err := timed("multi-image classify", cfg.Batcher.LatencyBudget, f.Base+"/v1/classify", multi(4), nil); err != nil {
		return err
	}

	// Phase 3 — overload: jam the workers and queue a 12-image backdrop
	// from a lenient client (wide explicit budget), then probe with the
	// default budget. The probe's estimated wait (5ms × 12 queued / 2
	// workers = 30ms) beats its 20ms budget, so admission control sheds
	// it up front. Both enter at the front, the way clients do: it
	// carries the backdrop's X-Quq-Latency-Budget to the worker and
	// hands the worker's 429 and Retry-After back without a second
	// attempt (a front that retried would shed the probe twice).
	met := backend.Srv.Metrics()
	takes, taken := met.BatchSize.Count(), met.BatchSize.Sum()
	block.Store(true)
	backdropErr := make(chan error, 1)
	go func() {
		backdropErr <- timed("backdrop", time.Second, f.Base+"/v1/classify", multi(12),
			http.Header{serve.LatencyBudgetHeader: {"1s"}})
	}()
	for backend.Srv.Metrics().QueueDepth.Value() != 12 {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.Gosched()
	}

	probe, err := post(ctx, f.Base+"/v1/classify", ClassifyBody(sel, flat[0]))
	if err != nil {
		return fmt.Errorf("shed probe: %w", err)
	}
	shed := 0
	if probe.Status == http.StatusTooManyRequests && probe.Header.Get("Retry-After") != "" {
		shed = int(backend.Srv.Metrics().Shed.Value())
	}
	shedQueueSlots := int(backend.Srv.Metrics().QueueDepth.Value()) - 12

	block.Store(false)
	close(gate)
	if err := <-backdropErr; err != nil {
		return err
	}
	// The backdrop's 12 images ran in more than one take of one image
	// apiece on average: each worker took two while the other was busy.
	coalesced := met.BatchSize.Sum()-taken > float64(met.BatchSize.Count()-takes)

	// Phase 4 — recovery: a lone single starts at once again.
	if err := lone("recovery classify"); err != nil {
		return err
	}

	// The shed counter must surface through the front-end's merged view.
	page, err := Do(ctx, http.MethodGet, f.Base+"/metrics", nil, nil)
	if err != nil {
		return fmt.Errorf("merged metrics: %w", err)
	}
	merged := strings.Contains(string(page.Body), fmt.Sprintf("quq_serve_shed_total %d", shed))

	rep.CheckLatencySLO(admitted, withinBudget, shed, shedQueueSlots, loneStartDelay, coalesced, merged)
	return nil
}
