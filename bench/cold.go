package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"quq/internal/ptq"
	"quq/internal/rng"
	"quq/internal/serve"
)

// coldKeySet is the key space cold-keys quantizes from scratch: both
// model sizes x bits 4-8 x both regimes.
func coldKeySet() []keySpec {
	var keys []keySpec
	for _, model := range []string{"ViT-S", "ViT-Nano"} {
		for bits := 4; bits <= 8; bits++ {
			for _, regime := range []string{"partial", "full"} {
				keys = append(keys, keySpec{model, bits, regime})
			}
		}
	}
	return keys
}

// coldBoots is how many times cold-keys boots its worker on an empty
// directory per set-up the run asks for.
const coldBoots = 10

// coldReadShare is the part of --seconds cold-keys spends reading the
// restored keys; quantizing the key set is fixed work, not a window.
const coldReadShare = 0.4

func coldConfig(dir string) serve.Config {
	return serve.Config{Registry: serve.RegistryOptions{SnapshotDir: dir}}
}

// bootCold starts the worker on dir and waits until it answers /healthz.
func bootCold(ctx context.Context, hc *http.Client, dir string) (*stack, error) {
	st, err := bootStack(coldConfig(dir), 1, 0, 0)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.entry+"/healthz", nil)
	if err == nil {
		var resp *http.Response
		if resp, err = hc.Do(req); err == nil {
			if err = resp.Body.Close(); err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("healthz: status %d", resp.StatusCode)
			}
		}
	}
	if err != nil {
		return nil, errors.Join(err, st.close())
	}
	return st, nil
}

// classifyAll classifies each key's image once, checks the logits, and
// returns the snapshot digest each response carried.
func classifyAll(ctx context.Context, hc *http.Client, url string, in *inputs) ([]string, phase) {
	p := phase{Name: "check", Clients: 1}
	digests := make([]string, len(in.keys))
	for k := range in.keys {
		p.Sent++
		status, hdr, body, err := post(ctx, hc, url, in.bodies[k][0])
		if err := firstErr(err, in.verify(k, 0, status, body)); err != nil {
			p.fail(false, err)
			continue
		}
		p.OK++
		digests[k] = hdr.Get(serve.DigestHeader)
	}
	return digests, p
}

func runCold(ctx context.Context, p params) (res *result, err error) {
	res = &result{Workload: "cold-keys", E2E: map[string]float64{}}
	src := rng.New(p.seed)
	all := p.coldKeys
	if all == nil {
		all = coldKeySet()
	}
	keys := make([]keySpec, len(all))
	for i, j := range src.Perm(len(all)) {
		keys[i] = all[j]
	}
	in, err := makeInputs(src.Split(), keys, 1, 1)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	// Set-up, first half: the boot on an empty directory. Every key is
	// cold by construction, so there is nothing to quantize ahead.
	root, err := os.MkdirTemp(p.scratch, "cold-")
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(root)) }()
	var st *stack
	var dir string
	var boots []float64
	runtime.GC() // a boot is a quarter of a millisecond: start them all from the same collected heap
	for i := 0; i < p.setups*coldBoots; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(root, fmt.Sprintf("boot-%d", i))
		t0 := time.Now()
		if st, err = bootCold(ctx, hc, dir); err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(t0).Seconds())
	}
	defer func() { err = errors.Join(err, st.close()) }()

	// Quantize phase: two clients take the keys in seeded order.
	qp := phase{Name: "quant", Clients: 2}
	next := make(chan int, len(keys)) // sized to the sends: every key is queued up front
	for k := range keys {
		next <- k
	}
	close(next)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var busy time.Duration // summed over the clients, each until its last answer
	start := time.Now()
	for c := 0; c < qp.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				mu.Lock()
				busy += time.Since(start)
				mu.Unlock()
			}()
			for k := range next {
				t0 := time.Now()
				status, _, body, err := post(ctx, hc, st.entry+"/v1/quantize", in.quantize[k])
				lat := ms(time.Since(t0).Seconds())
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("%s: status %d: %.120s", keys[k], status, body)
				}
				mu.Lock()
				qp.Sent++
				if err != nil {
					qp.fail(false, err)
				} else {
					qp.OK++
					qp.Lat = append(qp.Lat, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	qp.Window = time.Since(start)
	res.account(qp)
	// Keys over the clients' mean busy time: a client's clock stops at its
	// last answer, so the tail where one client idles while the other
	// finishes — an accident of the seeded order — is not charged.
	res.E2E["keys_per_s"] = float64(qp.OK*qp.Clients) / busy.Seconds()
	p.logf("phase quant  closed loop, 2 clients, %d cold keys: sent %d ok %d failed %d in %.2fs; %.3f keys/s; request p50 %.0f ms",
		len(keys), qp.Sent, qp.OK, qp.Failed, qp.Window.Seconds(), res.E2E["keys_per_s"], median(qp.Lat))
	if qp.Failed > 0 {
		return res, nil
	}

	// Answers before the restart, checked against the models as built.
	models := make([]*ptq.QuantizedModel, len(keys))
	for k, key := range keys {
		if models[k], _, err = st.served(ctx, key.key()); err != nil {
			return nil, err
		}
	}
	in.expect(models)
	res.checkGolden(p, in)
	before, check := classifyAll(ctx, hc, st.entry+"/v1/classify", in)
	res.account(check)

	// Set-up, second half: the restart on the directory the quantize
	// phase filled, until the registry stops answering "warming". A cold
	// boot is a quarter of a millisecond of syscalls and wake-ups and
	// varies twofold with the box's mood; the warm restart decodes 65 MB
	// of snapshots and is what makes this workload's setup_s steady
	// enough to compare. The snapshots must bring every key back with the
	// same digest and the same logits, bit for bit.
	var restarts []float64
	for i := 0; i < p.setups; i++ {
		if err := st.close(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if st, err = bootStack(coldConfig(dir), 1, 0, 0); err != nil {
			return nil, err
		}
		for st.workers[0].srv.Registry().Warming() {
			time.Sleep(50 * time.Microsecond)
		}
		restarts = append(restarts, time.Since(t0).Seconds())
	}
	restart := median(restarts)
	res.E2E["setup_s"] = median(boots) + restart
	p.logf("set-up: %.6fs boot on an empty snapshot dir (median of %d) + %.4fs warm restart on the filled one (median of %d)", median(boots), len(boots), restart, len(restarts))
	after, check := classifyAll(ctx, hc, st.entry+"/v1/classify", in)
	res.account(check)
	for k, key := range keys {
		if check.Failed == 0 && (after[k] == "" || after[k] != before[k]) {
			res.problemf("%s: %s %q after the restart, %q before", key, serve.DigestHeader, after[k], before[k])
		}
	}
	if misses := st.workers[0].srv.Metrics().CacheMisses.Value(); misses != 0 {
		res.problemf("warm restart recalibrated %d keys", misses)
	}
	p.logf("warm restart: %d keys back, digests and logits unchanged: %v", len(keys), len(res.Problems) == 0 && check.Failed == 0)

	// Reads on the restored keys. Only the larger model's keys, so that
	// request latency has one mode and its percentiles mean something.
	big := keys[0].config()
	for _, key := range keys {
		if cfg := key.config(); cfg.Dim > big.Dim {
			big = cfg
		}
	}
	var readIdx []int
	for k, key := range keys {
		if key.Model == big.Name {
			readIdx = append(readIdx, k)
		}
	}
	seqs := make([][]schedEntry, 2)
	for c := range seqs {
		for _, i := range src.Perm(len(readIdx)) {
			seqs[c] = append(seqs[c], schedEntry{Key: readIdx[i]})
		}
	}
	tgt := target{hc: hc, url: st.entry + "/v1/classify", in: in, perReq: 1}
	counted := st.counters()
	read := runClosed(ctx, tgt, "read", seqs, p.warm/2, time.Duration(float64(p.window)*coldReadShare))
	res.account(read)
	p.logf("%s", read.describe())
	delta := st.counters().sub(counted)
	res.E2E["img_per_s"] = read.BestImgPerS
	res.E2E["req_p50_ms"] = read.BestP50
	res.E2E["req_p90_ms"] = read.BestP90
	res.E2E["live_heap_mb"] = liveHeapMiB()

	if p.layers {
		// The traced pass works on the restored models the read window
		// used. Its direct rows describe the first of them, so the seeded
		// order must not pick it: 6/full leads when it is there, as on the
		// batch workloads.
		sort.SliceStable(readIdx, func(a, b int) bool {
			lead := func(k keySpec) bool { return k.Bits == 6 && k.Regime == "full" }
			return lead(keys[readIdx[a]]) && !lead(keys[readIdx[b]])
		})
		lin := in.subset(readIdx)
		var lmodels []*ptq.QuantizedModel
		var lowners []*worker
		for _, key := range lin.keys {
			qm, w, err := st.served(ctx, key.key())
			if err != nil {
				return nil, err
			}
			lmodels, lowners = append(lmodels, qm), append(lowners, w)
		}
		var replay []schedEntry
		for i := 0; i < 30; i++ {
			replay = append(replay, schedEntry{Key: i % len(lin.keys)})
		}
		lp := layerPass{
			st: st, in: lin, models: lmodels, owners: lowners, replay: replay, direct: 16,
			latency: read, delta: delta, seed: p.seed, scratch: p.scratch,
			snapDir: dir, warmRestartMs: ms(restart),
		}
		lp.run(ctx, res)
	}
	return res, nil
}
