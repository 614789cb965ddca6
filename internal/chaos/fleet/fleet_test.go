package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quq/internal/chaos"
	"quq/internal/data"
	"quq/internal/serve"
	"quq/internal/testutil"
	"quq/internal/vit"
)

// render runs one replay and returns its report plus the byte-exact
// text rendering.
func render(t *testing.T, seed uint64, opts Options) (*chaos.Report, string) {
	t.Helper()
	rep, err := Run(context.Background(), seed, opts)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return rep, buf.String()
}

// TestRunInvariantsHoldAndReplayIsByteIdentical is the harness's core
// claim: against the real (hardened) stack every invariant passes, and
// replaying the same seed against a fresh fleet — new ephemeral ports,
// new goroutine interleavings — renders the byte-identical report.
func TestRunInvariantsHoldAndReplayIsByteIdentical(t *testing.T) {
	rep, text1 := render(t, 7, Options{})
	if rep.Failed() {
		t.Fatalf("invariants failed on the healthy stack:\n%s", text1)
	}
	// 14 check entries for the 13 invariants: replica-divergence reports
	// replicas-identical twice — float/float replicas, then again with
	// one replica flipped to the integer weight path.
	if got := len(rep.Results); got != 14 {
		t.Fatalf("checks = %d, want 14 (13 invariants, replicas-identical twice)", got)
	}
	_, text2 := render(t, 7, Options{})
	if text1 != text2 {
		t.Fatalf("replay not byte-identical:\n--- run 1\n%s--- run 2\n%s", text1, text2)
	}

	// A different seed still passes (the invariants are fault-schedule
	// independent) but is allowed to differ in rendering only via the
	// seed header.
	rep3, text3 := render(t, 8, Options{})
	if rep3.Failed() {
		t.Fatalf("invariants failed under seed 8:\n%s", text3)
	}
}

// retry429 is the deliberately reintroduced bug: a transport that
// "helpfully" retries backpressure responses once. The chaos gate must
// catch it — a retried 429 doubles the backend attempt count. The retry
// is a clone with a fresh body from GetBody: the first attempt's write
// loop may still be reading the original body when its 429 arrives, so
// re-sending req itself would race on that reader.
type retry429 struct {
	inner http.RoundTripper
}

func (r retry429) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := r.inner.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusTooManyRequests {
		return resp, err
	}
	//quq:errdrop-ok the buggy transport under test discards the first 429 on purpose
	_ = resp.Body.Close()
	retry := req.Clone(req.Context())
	if req.GetBody != nil {
		body, err := req.GetBody()
		if err != nil {
			return nil, fmt.Errorf("retry429: rewind request body: %w", err)
		}
		retry.Body = body
	}
	return r.inner.RoundTrip(retry)
}

// TestRunCatchesReintroduced429Retry proves the gate has teeth: wiring
// the 429-retrying transport between the proxy and the fault layer
// flips the backpressure invariant to FAIL (and latency-slo with it: the
// probe overload-shed sheds through the front is retried too), and the
// replay still runs to its end.
func TestRunCatchesReintroduced429Retry(t *testing.T) {
	rep, text := render(t, 7, Options{
		WrapTransport: func(inner http.RoundTripper) http.RoundTripper {
			return retry429{inner: inner}
		},
	})
	if !rep.Failed() {
		t.Fatalf("429-retrying transport passed the chaos gate:\n%s", text)
	}
	seen := 0
	for _, c := range rep.Results {
		switch c.Name {
		case "429-never-retried":
			seen++
			if c.Pass {
				t.Fatalf("backpressure check passed despite the retry bug: %s", c.Detail)
			}
			if !strings.Contains(c.Detail, "backend-attempts=12") {
				t.Fatalf("detail does not show the doubled attempts: %s", c.Detail)
			}
		case "latency-slo":
			seen++
			if c.Pass {
				t.Fatalf("a shed retried by the front passed latency-slo: %s", c.Detail)
			}
		}
	}
	if seen != 2 {
		t.Fatalf("429-never-retried or latency-slo missing from the report:\n%s", text)
	}
}

// TestBootCrashRestartCloseLeaksNothing drives the exported constructor
// the smokes share with the scenarios: 3 workers at R=2 answer /healthz
// 3/3 through the shared request helper, one backend crashes and comes
// back on its own address, and Close joins every goroutine the fleet
// started.
func TestBootCrashRestartCloseLeaksNothing(t *testing.T) {
	t.Cleanup(testutil.VerifyNoLeaks(t))
	ctx := context.Background()

	f, err := Boot(ctx, 3, 2, baseConfig(7), &chaos.Script{Name: "boot-test", Seed: 7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	healthz := func() (healthy, backends int) {
		t.Helper()
		r, err := Do(ctx, http.MethodGet, f.Base+"/healthz", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var hz struct {
			Healthy  int `json:"healthy"`
			Backends int `json:"backends"`
		}
		if err := r.JSON(&hz); err != nil {
			t.Fatalf("healthz: %v", err)
		}
		return hz.Healthy, hz.Backends
	}
	if h, n := healthz(); h != 3 || n != 3 {
		t.Fatalf("healthz after boot = %d/%d healthy, want 3/3", h, n)
	}

	victim := f.Backends[1]
	host := victim.Host
	f.CrashBackend(victim)
	if _, err := Do(ctx, http.MethodGet, victim.URL()+"/healthz", nil, nil); err == nil {
		t.Fatal("crashed backend still answers")
	}
	f.Front.ProbeNow(ctx) // failAfter=2: one strike
	f.Front.ProbeNow(ctx) // ejected
	if h, _ := healthz(); h != 2 {
		t.Fatalf("healthy after crash = %d, want 2", h)
	}

	if err := f.RestartBackend(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if victim.Host != host {
		t.Fatalf("restart moved the backend: %s -> %s", host, victim.Host)
	}
	if b, err := f.BackendAt(victim.URL()); err != nil || b != victim {
		t.Fatalf("BackendAt(%s) = %v, %v; want the restarted backend", host, b, err)
	}
	if r, err := Do(ctx, http.MethodGet, victim.URL()+"/healthz", nil, nil); err != nil || r.Status != http.StatusOK {
		t.Fatalf("restarted backend healthz: status %d, err %v", r.Status, err)
	}
	f.Front.ProbeNow(ctx) // okAfter=2: hysteresis holds it out one more round
	f.Front.ProbeNow(ctx) // readmitted
	if h, n := healthz(); h != 3 || n != 3 {
		t.Fatalf("healthz after restart = %d/%d healthy, want 3/3", h, n)
	}
}

// TestBootedWorkerGovernorRunsOnFleetClock: a worker booted with a zero
// Governor config takes the fleet's fake clock, so its occupancy window
// ages by f.Clock.Sleep and by nothing else. Under an hour-long linger a
// full batch drops it to the load regime and the next single pends; once
// fake time passes the window, the single after that dispatches at
// submit and takes the pending one along — no real time involved.
func TestBootedWorkerGovernorRunsOnFleetClock(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cfg := baseConfig(7)
	cfg.Batcher = serve.BatcherOptions{MaxBatch: 4, Linger: time.Hour, QueueCap: 4}
	f, err := Boot(ctx, 1, 1, cfg, &chaos.Script{Name: "governor-clock", Seed: 7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	worker := f.Backends[0]
	met := worker.Srv.Metrics()
	sel := Selection{Model: "ViT-Nano", Method: "QUQ", Bits: 6}
	imgs := data.Images(vit.ViTNano, 4, 7)
	full := ClassifyBody(sel, nil)
	full["images"] = [][]float64{imgs[0].Data(), imgs[1].Data(), imgs[2].Data(), imgs[3].Data()}
	classify := func(body map[string]any) int {
		r, err := Do(ctx, http.MethodPost, worker.URL()+"/v1/classify", body, nil)
		if err != nil {
			t.Error(err)
		}
		return r.Status
	}

	if got := classify(full); got != http.StatusOK {
		t.Fatalf("full batch: status %d", got)
	}
	pending := make(chan int, 1)
	go func() { pending <- classify(ClassifyBody(sel, imgs[0].Data())) }()
	for met.QueueDepth.Value() != 1 {
		if err := ctx.Err(); err != nil {
			t.Fatalf("single behind the full batch never queued: %v", err)
		}
		runtime.Gosched()
	}
	// The queue holds the single, so four more images bounce — under the
	// batcher's lock, hence after the single's submit made its dispatch
	// decision: the clock below cannot move under that decision.
	if got := classify(full); got != http.StatusTooManyRequests {
		t.Fatalf("full batch behind the queued single: status %d, want 429", got)
	}

	if err := f.Clock.Sleep(ctx, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := classify(ClassifyBody(sel, imgs[1].Data())); got != http.StatusOK {
		t.Fatalf("single after the window aged out on the fleet clock: status %d", got)
	}
	if got := <-pending; got != http.StatusOK {
		t.Fatalf("pending single: status %d", got)
	}
	// Two batches, 4 + 2 images: the first single left only with the second.
	if n, sum := met.BatchSize.Count(), met.BatchSize.Sum(); n != 2 || sum != 6 {
		t.Fatalf("dispatched %d batches of %v images in total, want 2 of 6 (the full batch, then the pair)", n, sum)
	}
}

// TestFrontCarriesQuqHeaders: X-Quq-* metadata crosses quq-shard in both
// directions. Back: the digest a quantize answers with through the front
// is the worker's own. Forth: with the worker jammed and one request
// queued, a classify carrying a 1 ns X-Quq-Latency-Budget through the
// front is shed by the worker's admission control — 429 with Retry-After
// — instead of queueing behind the jam, which is what a front that drops
// the header makes of it.
func TestFrontCarriesQuqHeaders(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	clk := chaos.NewFake()
	gate := make(chan struct{})
	var block atomic.Bool
	cfg := baseConfig(7)
	cfg.Registry.SnapshotDir = t.TempDir()
	cfg.Batcher = serve.BatcherOptions{MaxBatch: 4, QueueCap: 8, Workers: 1, ForwardHook: func(string) {
		if block.Load() {
			<-gate
		}
		// Service time is what the admission estimate is made of, and
		// the governor reads it off this clock.
		//quq:errdrop-ok fake-clock sleep cannot fail except on test teardown
		_ = clk.Sleep(ctx, 5*time.Millisecond)
	}}
	cfg.Governor = serve.GovernorOptions{Clock: clk}
	f, err := Boot(ctx, 1, 1, cfg, &chaos.Script{Name: "front-headers", Seed: 7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	worker := f.Backends[0]
	sel := Selection{Model: "ViT-Nano", Method: "QUQ", Bits: 6}
	send := func(url string, body any, header http.Header) Reply {
		t.Helper()
		r, err := Do(ctx, http.MethodPost, url, body, header)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	direct := send(worker.URL()+"/v1/quantize", sel, nil).Header.Get(serve.DigestHeader)
	if got := send(f.Base+"/v1/quantize", sel, nil).Header.Get(serve.DigestHeader); direct == "" || got != direct {
		t.Fatalf("digest through the front = %q, the worker's own = %q", got, direct)
	}

	single := ClassifyBody(sel, data.Images(vit.ViTNano, 1, 7)[0].Data())
	if r := send(f.Base+"/v1/classify", single, nil); r.Status != http.StatusOK {
		t.Fatalf("classify through the front: status %d", r.Status)
	}
	block.Store(true)
	backdrop := make(chan int, 1)
	go func() {
		r, err := Do(ctx, http.MethodPost, f.Base+"/v1/classify", single, nil)
		if err != nil {
			t.Error(err)
		}
		backdrop <- r.Status
	}()
	for worker.Srv.Metrics().QueueDepth.Value() != 1 {
		if err := ctx.Err(); err != nil {
			t.Fatalf("backdrop never queued: %v", err)
		}
		runtime.Gosched()
	}
	probeCtx, stop := context.WithTimeout(ctx, 5*time.Second)
	defer stop()
	probe, err := Do(probeCtx, http.MethodPost, f.Base+"/v1/classify", single, http.Header{serve.LatencyBudgetHeader: {"1ns"}})
	if err != nil {
		t.Fatalf("1 ns budget through the front was not shed, it queued behind the jam: %v", err)
	}
	if probe.Status != http.StatusTooManyRequests || probe.Header.Get("Retry-After") == "" {
		t.Fatalf("1 ns budget through the front: status %d, Retry-After %q; want 429 with Retry-After", probe.Status, probe.Header.Get("Retry-After"))
	}
	if shed := worker.Srv.Metrics().Shed.Value(); shed != 1 {
		t.Fatalf("worker shed %d requests, want 1", shed)
	}
	block.Store(false)
	close(gate)
	if got := <-backdrop; got != http.StatusOK {
		t.Fatalf("backdrop: status %d", got)
	}
}
