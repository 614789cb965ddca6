// Command quq-shard runs the consistent-hash sharding front-end: it
// hashes each registry key (model, method, bits, regime) onto a ring of
// quq-serve backends with bounded-load virtual nodes, proxies inference
// to the owning shard, health-checks the fleet, and aggregates every
// shard's /metrics into one deterministic cluster exposition.
//
// Usage:
//
//	quq-shard -backends host1:8642,host2:8642[,...] [-addr :8641] [flags]
//	quq-shard -smoke    # spawn 3 in-process quq-serve shards, self-test
//	quq-shard -chaos    # replay seeded fault scripts, verify invariants
//
// Endpoints:
//
//	POST /v1/classify   proxied to the shard owning the request's key
//	POST /v1/quantize   proxied to the key's R replica owners (-replicas)
//	GET  /models        fleet-merged registry view
//	GET  /cluster       membership view (epoch, replication, ring params,
//	                    per-backend health, drain mark and load)
//	POST /admin/join    admit a backend without a restart
//	POST /admin/drain   copy a backend's calibrated keys' snapshots to
//	                    their new owners, then remove it
//	POST /admin/leave   remove a backend abruptly (replication covers it)
//	GET  /healthz       front-end liveness (503 when no shard is healthy)
//	GET  /metrics       merged cluster exposition (front-end + shards)
//
// With -replicas R > 1 each key is placed on R ring successors:
// quantizes fan out to all of them (a calibration survives any R-1
// departures) and reads try the replica set in slot order before
// falling past it. Retries with backoff apply only to connection
// failures; HTTP responses — 429 backpressure above all — are relayed
// as-is.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"quq/internal/chaos"
	"quq/internal/chaos/fleet"
	"quq/internal/data"
	"quq/internal/serve"
	"quq/internal/serve/metrics"
	"quq/internal/shard"
	"quq/internal/vit"
)

func main() {
	var (
		addr        = flag.String("addr", ":8641", "listen address")
		backends    = flag.String("backends", "", "comma-separated quq-serve backend addresses")
		replicas    = flag.Int("replicas", 1, "replication factor R: each key is owned by R ring successors; quantizes fan out to all of them")
		antiEntropy = flag.Duration("anti-entropy-interval", 0, "period of the background anti-entropy sweep comparing snapshot digests across each key's R replica owners and repairing divergent or missing copies (0 disables; needs -replicas >= 2 and backends running with -snapshot-dir)")
		timeout     = flag.Duration("timeout", 120*time.Second, "per-request timeout, including first-request calibration")
		maxBody     = flag.Int64("max-body", 8<<20, "request body size limit in bytes")
		smoke       = flag.Bool("smoke", false, "spawn 3 in-process quq-serve shards and run the multi-key self-test")
		chaosMode   = flag.Bool("chaos", false, "replay the seeded fault-injection scripts against an in-process fleet and verify the failure-domain invariants")
		chaosSeed   = flag.Uint64("chaos-seed", 7, "fault-schedule seed for -chaos")
	)
	flag.Parse()
	log.SetFlags(0)

	opts := shard.Options{
		Replicas:       *replicas,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,

		AntiEntropyInterval: *antiEntropy,
	}

	if *smoke {
		if err := runSmoke(context.Background()); err != nil {
			log.Fatalf("smoke: %v", err)
		}
		log.Printf("smoke: ok")
		return
	}

	if *chaosMode {
		if err := runChaos(context.Background(), *chaosSeed); err != nil {
			log.Fatalf("chaos: %v", err)
		}
		log.Printf("chaos: ok")
		return
	}

	if *backends == "" {
		log.Fatal("quq-shard: -backends is required (or use -smoke)")
	}
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			opts.Backends = append(opts.Backends, b)
		}
	}
	if err := run(opts, *addr); err != nil {
		log.Fatal(err)
	}
}

// run serves until SIGINT/SIGTERM, then shuts down gracefully.
func run(opts shard.Options, addr string) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	f := shard.New(opts)
	defer f.Close()
	httpSrv := &http.Server{Addr: addr, Handler: f.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("quq-shard listening on %s, %d backends", addr, len(opts.Backends))

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("signal received; shutting down")
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("bye")
	return nil
}

// runChaos replays the seeded fault scripts against a fresh in-process
// fleet twice. Both runs must pass every failure-domain invariant AND
// render byte-identical reports — the second condition is what pins the
// harness (and everything under it: seeded backoff jitter, seeded fault
// draws, count-only reporting) to full determinism.
func runChaos(ctx context.Context, seed uint64) error {
	var first string
	for run := 0; run < 2; run++ {
		rep, err := fleet.Run(ctx, seed, fleet.Options{})
		if err != nil {
			return fmt.Errorf("run %d: %w", run+1, err)
		}
		var buf strings.Builder
		if err := rep.WriteText(&buf); err != nil {
			return err
		}
		if run == 0 {
			first = buf.String()
			for _, line := range strings.Split(strings.TrimRight(first, "\n"), "\n") {
				log.Printf("chaos: %s", line)
			}
		} else if buf.String() != first {
			return fmt.Errorf("replay diverged from first run:\n--- run 1\n%s--- run 2\n%s", first, buf.String())
		}
		if rep.Failed() {
			return fmt.Errorf("run %d: invariant violation (see report above)", run+1)
		}
	}
	log.Printf("chaos: replay byte-identical across 2 runs, all invariants hold")
	return nil
}

// runSmoke is the acceptance demonstration: three shards, four registry
// keys each calibrated on exactly one shard (proven by the aggregated
// metrics), canonicalized spellings hitting the warm cache, then a
// backend kill with failover and ejection. The fleet is a fixed one —
// 3 ViT-Nano workers at R=1, manual probing — booted through the same
// constructor the chaos gate uses.
func runSmoke(ctx context.Context) error {
	const nShards = 3
	f, err := fleet.Boot(ctx, nShards, 1, serve.Config{
		Registry: serve.RegistryOptions{Seed: 2024, CalibImages: 2},
	}, &chaos.Script{Name: "smoke", Seed: 1}, fleet.Options{})
	if err != nil {
		return err
	}
	defer f.Close()
	log.Printf("smoke: front-end %s over %d shards", f.Base, nShards)

	// classify posts one selection through the front-end, returning the
	// served key and the shard that handled it.
	img := data.Images(vit.ViTNano, 1, 4242)[0].Data()
	classify := func(sel fleet.Selection) (key, host string, err error) {
		r, err := fleet.Do(ctx, http.MethodPost, f.Base+"/v1/classify", fleet.ClassifyBody(sel, img), nil)
		if err != nil {
			return "", "", err
		}
		out, err := r.Classified(1)
		if err != nil {
			return "", "", fmt.Errorf("classify: %w", err)
		}
		return out.Key, r.ServedBy(), nil
	}

	// Four distinct registry keys on the cheap ViT-Nano config. The
	// third deliberately uses sloppy spelling: canonicalization must map
	// it to the same shard (and later the same cache entry) as "BaseQ".
	selections := []fleet.Selection{
		{Model: "ViT-Nano", Method: "QUQ", Bits: 6},
		{Model: "ViT-Nano", Method: "BaseQ", Bits: 6},
		{Model: "vit-nano", Method: "baseq", Bits: 4},
		{Model: "ViT-Nano", Method: "FQ-ViT", Bits: 6},
	}
	served := map[string]string{} // key -> shard host
	for _, sel := range selections {
		key, host, err := classify(sel)
		if err != nil {
			return err
		}
		served[key] = host
		log.Printf("smoke: %-28s -> shard %s", key, host)
	}
	if len(served) != len(selections) {
		return fmt.Errorf("expected %d distinct keys, saw %d", len(selections), len(served))
	}

	// Replay the first key with a different spelling: same shard, and —
	// proven below via cache-miss counters — no recalibration.
	key, host, err := classify(fleet.Selection{Model: "VIT-NANO", Method: "quq", Bits: 6, Regime: "Partial"})
	if err != nil {
		return err
	}
	if served[key] == "" || served[key] != host {
		return fmt.Errorf("respelled key %s routed to %s, originally %s", key, host, served[key])
	}

	// Aggregated metrics: exactly one calibration per distinct key
	// fleet-wide, and at least one cache hit from the respelled replay.
	r, err := fleet.Do(ctx, http.MethodGet, f.Base+"/metrics", nil, nil)
	if err != nil {
		return err
	}
	if r.Status != http.StatusOK {
		return fmt.Errorf("metrics: status %d", r.Status)
	}
	page, err := metrics.ParseText(bytes.NewReader(r.Body))
	if err != nil {
		return err
	}
	if misses, ok := page.Scalar("quq_serve_model_cache_misses_total"); !ok || misses != float64(len(selections)) {
		return fmt.Errorf("aggregated cache misses = %v (ok=%v), want %d: a key calibrated on more than one shard",
			misses, ok, len(selections))
	}
	if hits, ok := page.Scalar("quq_serve_model_cache_hits_total"); !ok || hits < 1 {
		return fmt.Errorf("aggregated cache hits = %v (ok=%v), want >= 1", hits, ok)
	}
	log.Printf("smoke: aggregated metrics confirm %d keys, each calibrated exactly once", len(selections))

	// Kill the shard owning the lowest key (a deterministic choice): the
	// survivors must serve it.
	var victimSel fleet.Selection
	victimKey := ""
	for _, sel := range selections {
		k, err := sel.Key()
		if err != nil {
			return fmt.Errorf("canonicalizing smoke selection: %w", err)
		}
		if victimKey == "" || k < victimKey {
			victimKey, victimSel = k, sel
		}
	}
	victim, err := f.BackendAt(served[victimKey])
	if err != nil {
		return err
	}
	f.CrashBackend(victim)
	log.Printf("smoke: killed shard %s (owned %s)", victim.Host, victimKey)

	_, failoverHost, err := classify(victimSel)
	if err != nil {
		return fmt.Errorf("failover classify: %w", err)
	}
	if failoverHost == victim.Host {
		return fmt.Errorf("key %s still served by the killed shard", victimKey)
	}
	if got := f.Front.Metrics().Ejections.Value(); got != 1 {
		return fmt.Errorf("ejections = %d, want 1", got)
	}
	log.Printf("smoke: %s failed over to %s", victimKey, failoverHost)

	// A probe round confirms the fleet view: two healthy survivors.
	f.Front.ProbeNow(ctx)
	var hz struct {
		Healthy  int `json:"healthy"`
		Backends int `json:"backends"`
	}
	if r, err = fleet.Do(ctx, http.MethodGet, f.Base+"/healthz", nil, nil); err == nil {
		err = r.JSON(&hz)
	}
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if hz.Healthy != nShards-1 || hz.Backends != nShards {
		return fmt.Errorf("healthz = %+v, want %d/%d healthy", hz, nShards-1, nShards)
	}
	log.Printf("smoke: healthz reports %d/%d shards healthy after ejection", hz.Healthy, hz.Backends)
	return nil
}
