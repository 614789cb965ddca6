// Command quq-serve runs the concurrent batched inference service: an
// HTTP/JSON front-end over the PTQ pipeline with a lazily populated
// quantized-model registry and a micro-batching scheduler.
//
// Usage:
//
//	quq-serve [-addr :8642] [-ckpt artifacts/vit-nano.ckpt] [flags]
//	quq-serve -smoke    # self-test round trip on an ephemeral port
//
// Endpoints:
//
//	POST /v1/classify   classify images with a (model, method, bits, regime)
//	POST /v1/quantize   warm a registry entry without classifying
//	GET  /models        servable configs, methods, cached entries
//	GET  /healthz       liveness probe
//	GET  /metrics       Prometheus-style text exposition
//
// SIGINT/SIGTERM triggers a graceful drain: admission stops, pending
// micro-batches flush, in-flight forwards finish, then the process
// exits.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"quq/internal/chaos"
	"quq/internal/chaos/fleet"
	"quq/internal/data"
	"quq/internal/serve"
	"quq/internal/vit"
)

func main() {
	var (
		addr    = flag.String("addr", ":8642", "listen address")
		ckpt    = flag.String("ckpt", "", "ViT-Nano checkpoint path (empty: synthetic weights)")
		seed    = flag.Uint64("seed", 2024, "base weight/calibration seed")
		timeout = flag.Duration("timeout", 60*time.Second, "per-request timeout, including first-request calibration")
		maxBody = flag.Int64("max-body", 8<<20, "request body size limit in bytes")
		smoke   = flag.Bool("smoke", false, "start on an ephemeral port, run a quantize+classify round trip, exit")
		intPath = flag.Bool("int-path", false, "run QUQ-method weight GEMMs on resident integer operands (no float64 weight rehydration); logits agree with the float path on the 2^-16 requantized grid, with the same argmax")
		snapDir = flag.String("snapshot-dir", "", "directory for checksummed calibration snapshots; every successful build is persisted atomically and a restart warm-loads verified snapshots instead of recalibrating (empty disables durability)")

		latencyBudget = flag.Duration("latency-budget", 0, "default per-request latency budget; estimated queue waits beyond it shed with 429 (0 disables; X-Quq-Latency-Budget overrides per request)")
	)
	flag.Parse()
	log.SetFlags(0)

	cfg := serve.Config{
		Registry: serve.RegistryOptions{
			Seed:        *seed,
			Checkpoint:  *ckpt,
			IntPath:     *intPath,
			SnapshotDir: *snapDir,
		},
		Batcher: serve.BatcherOptions{
			LatencyBudget: *latencyBudget,
		},
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
	}

	if *smoke {
		// Keep the self-test cheap: two calibration images on ViT-Nano.
		cfg.Registry.CalibImages = 2
		if err := runSmoke(context.Background(), cfg); err != nil {
			log.Fatalf("smoke: %v", err)
		}
		log.Printf("smoke: ok")
		return
	}

	if err := run(cfg, *addr); err != nil {
		log.Fatal(err)
	}
}

// run serves until SIGINT/SIGTERM, then drains gracefully.
func run(cfg serve.Config, addr string) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	s := serve.New(cfg)
	httpSrv := &http.Server{Addr: addr, Handler: s.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("quq-serve listening on %s", addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("signal received; draining")
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := s.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Printf("drained; bye")
	return nil
}

// runSmoke boots one worker on an ephemeral loopback port through the
// shared in-process fleet and drives one quantize + classify round trip
// at it through the real HTTP stack, then drains it.
func runSmoke(ctx context.Context, cfg serve.Config) error {
	f, err := fleet.Boot(ctx, 1, 1, cfg, &chaos.Script{Name: "smoke", Seed: 1}, fleet.Options{})
	if err != nil {
		return err
	}
	defer f.Close()
	worker := f.Backends[0]
	base := worker.URL()

	// The quantize carries a replica-slot stamp, the way a replicating
	// quq-shard front-end would send it; /models must reflect it back.
	sel := fleet.Selection{Model: vit.ViTNano.Name, Method: "QUQ", Bits: 6}
	var warm struct {
		Key     string  `json:"key"`
		Cached  bool    `json:"cached"`
		BuildMS float64 `json:"build_ms"`
	}
	r, err := fleet.Do(ctx, http.MethodPost, base+"/v1/quantize", sel, http.Header{serve.ReplicaHeader: {"0"}})
	if err == nil {
		err = r.JSON(&warm)
	}
	if err != nil {
		return fmt.Errorf("quantize: %w", err)
	}
	log.Printf("smoke: quantized %s in %.0fms (cached=%v)", warm.Key, warm.BuildMS, warm.Cached)

	img := data.Images(vit.ViTNano, 1, 4242)[0]
	if r, err = fleet.Do(ctx, http.MethodPost, base+"/v1/classify", fleet.ClassifyBody(sel, img.Data()), nil); err != nil {
		return fmt.Errorf("classify: %w", err)
	}
	cls, err := r.Classified(1)
	if err != nil {
		return fmt.Errorf("classify: %w", err)
	}
	if len(cls.Results[0].Logits) != vit.ViTNano.Classes {
		return fmt.Errorf("classify: malformed response %+v", cls)
	}
	log.Printf("smoke: classified via %s -> argmax %d", cls.Key, cls.Results[0].ArgMax)

	if r, err = fleet.Do(ctx, http.MethodGet, base+"/models", nil, nil); err != nil {
		return fmt.Errorf("models: %w", err)
	}
	entries, err := r.Models()
	if err != nil {
		return fmt.Errorf("models: %w", err)
	}
	e, ok := entries[warm.Key]
	if !ok {
		return fmt.Errorf("models: warmed key %s missing from entries", warm.Key)
	}
	if !e.Ready || e.Replica != 0 {
		return fmt.Errorf("models entry %s: ready=%v replica=%d, want ready at replica 0", e.Key, e.Ready, e.Replica)
	}
	log.Printf("smoke: /models reflects %s ready at replica 0", warm.Key)

	if r, err = fleet.Do(ctx, http.MethodGet, base+"/metrics", nil, nil); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if !bytes.Contains(r.Body, []byte("quq_serve_requests_total")) {
		return fmt.Errorf("metrics: missing quq_serve_requests_total in exposition")
	}

	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := worker.Srv.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
