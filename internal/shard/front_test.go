package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quq/internal/chaos"
	"quq/internal/serve/metrics"
	"quq/internal/shard"
	"quq/internal/testutil"
)

// fakeBackend is a minimal stand-in for quq-serve: it records how many
// classify requests it saw, answers /healthz according to a switch, and
// serves a small metrics page.
type fakeBackend struct {
	srv           *httptest.Server
	requests      atomic.Int64
	healthy       atomic.Bool
	status        atomic.Int64 // classify status code; 0 means 200
	metricsBroken atomic.Bool  // /metrics answers 500 while set
}

func newFakeBackend(t *testing.T, name string) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{}
	fb.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		fb.requests.Add(1)
		code := int(fb.status.Load())
		if code == 0 {
			code = http.StatusOK
		}
		w.Header().Set("Content-Type", "application/json")
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"backend":%q}`, name)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !fb.healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if fb.metricsBroken.Load() {
			http.Error(w, "metrics endpoint wedged", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprintf(w, "# HELP quq_serve_requests_total fake\nquq_serve_requests_total %d\n", fb.requests.Load())
	})
	fb.srv = httptest.NewServer(mux)
	t.Cleanup(fb.srv.Close)
	return fb
}

// newFront builds a front-end over the given backends with background
// probing disabled and no transport retries, so every health transition
// in a test is explicit.
func newFront(t *testing.T, backends ...*fakeBackend) (*shard.Front, []string) {
	t.Helper()
	addrs := make([]string, len(backends))
	for i, b := range backends {
		addrs[i] = b.srv.URL
	}
	f := shard.New(shard.Options{
		Backends:      addrs,
		ProbeInterval: -1,
		Retries:       -1,
		RetryBackoff:  1,
	})
	t.Cleanup(f.Close)
	return f, addrs
}

func classify(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestFrontRoutesDeterministically: the backend that serves a key is the
// ring owner, and repeated requests for the same key never move while
// the fleet is stable.
func TestFrontRoutesDeterministically(t *testing.T) {
	b0, b1, b2 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1"), newFakeBackend(t, "b2")
	f, _ := newFront(t, b0, b1, b2)

	seen := map[string]string{}
	for _, model := range []string{"ViT-Nano", "ViT-S", "Swin-T", "DeiT-B"} {
		body := fmt.Sprintf(`{"model":%q,"method":"QUQ","bits":6}`, model)
		var first string
		for i := 0; i < 3; i++ {
			w := classify(t, f.Handler(), body)
			if w.Code != http.StatusOK {
				t.Fatalf("classify %s: status %d: %s", model, w.Code, w.Body)
			}
			got := w.Header().Get(shard.BackendHeader)
			if got == "" {
				t.Fatal("response missing backend header")
			}
			if first == "" {
				first = got
			} else if got != first {
				t.Fatalf("key %s moved %s -> %s on a stable fleet", model, first, got)
			}
		}
		seen[model] = first
		key := fmt.Sprintf("%s/QUQ/w6a6/partial", model)
		owner, _ := f.Ring().Owner(key)
		if owner.Addr() != first {
			t.Fatalf("key %s served by %s but ring owner is %s", key, first, owner.Addr())
		}
	}
}

// TestFrontCanonicalizesBeforeHashing: "quq"/"Quq"/"QUQ" (and model-case
// variants) are one key, hence one backend — the canonicalization
// contract that keeps routing and backend caching in agreement.
func TestFrontCanonicalizesBeforeHashing(t *testing.T) {
	b0, b1, b2 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1"), newFakeBackend(t, "b2")
	f, _ := newFront(t, b0, b1, b2)

	variants := []string{
		`{"model":"ViT-S","method":"QUQ","bits":6}`,
		`{"model":"vit-s","method":"quq","bits":6}`,
		`{"model":"VIT-S","method":"Quq","bits":6,"regime":"Partial"}`,
	}
	var want string
	for i, body := range variants {
		w := classify(t, f.Handler(), body)
		if w.Code != http.StatusOK {
			t.Fatalf("variant %d: status %d: %s", i, w.Code, w.Body)
		}
		got := w.Header().Get(shard.BackendHeader)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("spelling variant %d routed to %s, canonical went to %s", i, got, want)
		}
	}
}

// TestFrontRejectsUnknownEnums: bogus model/method/bits/regime are 400s
// at the front-end — no backend ever sees them.
func TestFrontRejectsUnknownEnums(t *testing.T) {
	b0, b1 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1")
	f, _ := newFront(t, b0, b1)

	bad := []string{
		`{"model":"ResNet-50","method":"QUQ"}`,
		`{"model":"ViT-S","method":"GPTQ"}`,
		`{"model":"ViT-S","method":"QUQ","bits":2}`,
		`{"model":"ViT-S","method":"QUQ","bits":17}`,
		`{"model":"ViT-S","method":"QUQ","regime":"turbo"}`,
		`not json`,
	}
	for _, body := range bad {
		w := classify(t, f.Handler(), body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, w.Code)
		}
	}
	if n := b0.requests.Load() + b1.requests.Load(); n != 0 {
		t.Fatalf("backends saw %d requests for invalid selections", n)
	}
}

// TestFrontPropagatesBackpressure: a backend 429 is relayed with its
// Retry-After, counted, and — critically — never retried or failed over:
// exactly one backend attempt.
func TestFrontPropagatesBackpressure(t *testing.T) {
	b0, b1 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1")
	b0.status.Store(http.StatusTooManyRequests)
	b1.status.Store(http.StatusTooManyRequests)
	f, _ := newFront(t, b0, b1)

	w := classify(t, f.Handler(), `{"model":"ViT-S","method":"QUQ","bits":6}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 relayed without Retry-After")
	}
	if n := b0.requests.Load() + b1.requests.Load(); n != 1 {
		t.Fatalf("backpressured request hit backends %d times, want exactly 1", n)
	}
	if got := f.Metrics().Backpressure.Value(); got != 1 {
		t.Fatalf("backpressure counter = %d, want 1", got)
	}
}

// holdBackend is a backend that parks every POST until released — the
// shape of a healthy worker busy with a long calibration.
func holdBackend(t *testing.T) (srv *httptest.Server, arrived <-chan struct{}, release func()) {
	t.Helper()
	in := make(chan struct{}, 8) // roomy: no test parks more than R=2 requests
	gate := make(chan struct{})
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			in <- struct{}{}
			<-gate
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"key":"held"}`)
	}))
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(srv.Close)
	t.Cleanup(release) // LIFO: parked handlers are let go before srv.Close waits on them
	return srv, in, release
}

// TestFrontClientCancelDoesNotEject: a client that hangs up (or whose
// deadline expires) while the proxy waits on a healthy backend is the
// client's failure, not the backend's — the front answers 504 and leaves
// health alone, and the same backend serves the next request.
func TestFrontClientCancelDoesNotEject(t *testing.T) {
	srv, arrived, release := holdBackend(t)
	f := shard.New(shard.Options{Backends: []string{srv.URL}, ProbeInterval: -1, Retries: -1, RetryBackoff: 1})
	t.Cleanup(f.Close)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/classify",
		strings.NewReader(`{"model":"ViT-S","method":"QUQ","bits":6}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Handler().ServeHTTP(w, req)
	}()
	<-arrived // the proxy is now waiting on the backend
	cancel()  // ... and the client walks away
	<-done
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("cancelled request: status %d, want 504", w.Code)
	}
	if got := f.Metrics().Ejections.Value(); got != 0 {
		t.Fatalf("ejections = %d after a client cancel, want 0", got)
	}
	if got := f.Ring().HealthyCount(); got != 1 {
		t.Fatalf("healthy count = %d, want 1: the backend never failed", got)
	}

	release()
	w2 := classify(t, f.Handler(), `{"model":"ViT-S","method":"QUQ","bits":6}`)
	if w2.Code != http.StatusOK || w2.Header().Get(shard.BackendHeader) != srv.URL {
		t.Fatalf("next request: status %d via %q, want 200 via %s", w2.Code, w2.Header().Get(shard.BackendHeader), srv.URL)
	}
}

// TestFrontFailsOverOnConnectionFailure: killing the owning backend
// ejects it passively and the survivor serves its keys; a later probe
// round readmits a recovered backend.
func TestFrontFailsOverOnConnectionFailure(t *testing.T) {
	b0, b1, b2 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1"), newFakeBackend(t, "b2")
	f, _ := newFront(t, b0, b1, b2)

	body := `{"model":"ViT-S","method":"QUQ","bits":6}`
	w := classify(t, f.Handler(), body)
	ownerAddr := w.Header().Get(shard.BackendHeader)
	var owner *fakeBackend
	for _, fb := range []*fakeBackend{b0, b1, b2} {
		if fb.srv.URL == ownerAddr {
			owner = fb
		}
	}
	owner.srv.Close() // kill the owning backend

	w = classify(t, f.Handler(), body)
	if w.Code != http.StatusOK {
		t.Fatalf("failover request: status %d: %s", w.Code, w.Body)
	}
	survivor := w.Header().Get(shard.BackendHeader)
	if survivor == ownerAddr {
		t.Fatal("request routed to the killed backend")
	}
	if got := f.Metrics().Ejections.Value(); got != 1 {
		t.Fatalf("ejections = %d, want 1", got)
	}
	if got := f.Metrics().Failovers.Value(); got == 0 {
		t.Fatal("failover not counted")
	}
	if got := f.Ring().HealthyCount(); got != 2 {
		t.Fatalf("healthy count = %d, want 2", got)
	}

	// The survivor keeps serving the key on subsequent requests.
	w = classify(t, f.Handler(), body)
	if got := w.Header().Get(shard.BackendHeader); got != survivor {
		t.Fatalf("key moved again: %s -> %s", survivor, got)
	}
}

// TestProberEjectsAndReadmits: failAfter consecutive probe failures
// eject a backend; okAfter consecutive healthy probes readmit it and it
// resumes owning exactly its old arcs. The readmission lands on the
// okAfter-th healthy probe itself: there is no hidden extra round.
func TestProberEjectsAndReadmits(t *testing.T) {
	b0, b1 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1")
	f, addrs := newFront(t, b0, b1)

	b0.healthy.Store(false)
	f.ProbeNow(context.Background()) // one failure: below failAfter=2, still admitted
	if got := f.Ring().HealthyCount(); got != 2 {
		t.Fatalf("after 1 failed probe: healthy = %d, want 2", got)
	}
	f.ProbeNow(context.Background()) // second consecutive failure: ejected
	if got := f.Ring().HealthyCount(); got != 1 {
		t.Fatalf("after 2 failed probes: healthy = %d, want 1", got)
	}
	if got := f.Metrics().Ejections.Value(); got != 1 {
		t.Fatalf("ejections = %d, want 1", got)
	}

	b0.healthy.Store(true)
	f.ProbeNow(context.Background()) // one recovery probe: below okAfter=2, still ejected
	if got := f.Ring().HealthyCount(); got != 1 {
		t.Fatalf("after 1 recovery probe: healthy = %d, want 1 (hysteresis)", got)
	}
	f.ProbeNow(context.Background()) // second consecutive ok: readmitted
	if got := f.Ring().HealthyCount(); got != 2 {
		t.Fatalf("after 2 recovery probes: healthy = %d, want 2", got)
	}
	if got := f.Metrics().Readmissions.Value(); got != 1 {
		t.Fatalf("readmissions = %d, want 1", got)
	}
	_ = addrs
}

// TestProberFlapHysteresis: a backend alternating dead and alive on
// every probe round must settle, not oscillate. Once ejected it never
// assembles okAfter consecutive healthy probes, so it stays out (and
// the moved arc stays moved) until it is genuinely stable again: the
// recovery streak counts only the probes after the last failure.
func TestProberFlapHysteresis(t *testing.T) {
	b0, b1 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1")
	f, _ := newFront(t, b0, b1)

	b0.healthy.Store(false)
	f.ProbeNow(context.Background())
	f.ProbeNow(context.Background()) // failAfter=2 consecutive failures: ejected
	if got := f.Ring().HealthyCount(); got != 1 {
		t.Fatalf("flapping backend not ejected: healthy = %d", got)
	}

	// Six rounds of perfect flapping: ok, fail, ok, fail, ok, fail.
	for i := 0; i < 3; i++ {
		b0.healthy.Store(true)
		f.ProbeNow(context.Background())
		if got := f.Ring().HealthyCount(); got != 1 {
			t.Fatalf("flap round %d: single ok probe readmitted the backend", i)
		}
		b0.healthy.Store(false)
		f.ProbeNow(context.Background())
	}
	if got := f.Metrics().Readmissions.Value(); got != 0 {
		t.Fatalf("readmissions during flapping = %d, want 0", got)
	}
	if got := f.Metrics().Ejections.Value(); got != 1 {
		t.Fatalf("ejections = %d, want 1 (the flapping backend never re-entered)", got)
	}

	// A genuinely stable recovery still gets back in, on the okAfter-th
	// healthy probe after the last failure: the three healthy probes
	// the flapping interleaved count for nothing.
	b0.healthy.Store(true)
	f.ProbeNow(context.Background())
	if got := f.Ring().HealthyCount(); got != 1 {
		t.Fatalf("first probe after the last failure readmitted: healthy = %d, want 1", got)
	}
	f.ProbeNow(context.Background())
	if got := f.Ring().HealthyCount(); got != 2 {
		t.Fatalf("stable recovery not readmitted: healthy = %d, want 2", got)
	}
	if got := f.Metrics().Readmissions.Value(); got != 1 {
		t.Fatalf("readmissions after stable recovery = %d, want 1", got)
	}
}

// TestFrontHealthz: ok with admitted backends, 503 once the fleet is
// gone.
func TestFrontHealthz(t *testing.T) {
	b0 := newFakeBackend(t, "b0")
	f, _ := newFront(t, b0)

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	f.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz with live backend: %d", w.Code)
	}

	b0.healthy.Store(false)
	f.ProbeNow(context.Background())
	f.ProbeNow(context.Background())
	w = httptest.NewRecorder()
	f.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead fleet: %d, want 503", w.Code)
	}
}

// TestFrontAggregatesMetrics: /metrics merges every backend's page with
// the front-end's own instruments into one deterministic exposition.
func TestFrontAggregatesMetrics(t *testing.T) {
	b0, b1, b2 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1"), newFakeBackend(t, "b2")
	f, _ := newFront(t, b0, b1, b2)

	// Generate some traffic so backend counters are non-zero.
	for _, model := range []string{"ViT-Nano", "ViT-S", "Swin-T", "DeiT-B"} {
		body := fmt.Sprintf(`{"model":%q,"method":"QUQ","bits":6}`, model)
		if w := classify(t, f.Handler(), body); w.Code != http.StatusOK {
			t.Fatalf("classify %s: %d", model, w.Code)
		}
	}
	total := b0.requests.Load() + b1.requests.Load() + b2.requests.Load()
	if total != 4 {
		t.Fatalf("backends saw %d requests, want 4", total)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	f.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", w.Code, w.Body)
	}
	page, err := metrics.ParseText(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("aggregated page does not parse: %v", err)
	}
	if got, ok := page.Scalar("quq_serve_requests_total"); !ok || got != float64(total) {
		t.Fatalf("aggregated quq_serve_requests_total = %v (ok=%v), want %d", got, ok, total)
	}
	if got, ok := page.Scalar("quq_shard_requests_total"); !ok || got < 4 {
		t.Fatalf("aggregated quq_shard_requests_total = %v (ok=%v), want >= 4", got, ok)
	}
	if got, ok := page.Scalar("quq_shard_healthy_backends"); !ok || got != 3 {
		t.Fatalf("quq_shard_healthy_backends = %v (ok=%v), want 3", got, ok)
	}

	// Determinism: two scrapes with no traffic in between (metrics
	// requests themselves mutate shard counters, so strip those).
	w2 := httptest.NewRecorder()
	f.Handler().ServeHTTP(w2, req)
	p1, err1 := metrics.ParseText(bytes.NewReader(w.Body.Bytes()))
	p2, err2 := metrics.ParseText(bytes.NewReader(w2.Body.Bytes()))
	if err1 != nil || err2 != nil {
		t.Fatalf("reparse: %v / %v", err1, err2)
	}
	if v1, _ := p1.Scalar("quq_serve_requests_total"); true {
		if v2, _ := p2.Scalar("quq_serve_requests_total"); v1 != v2 {
			t.Fatalf("backend counters drifted between idle scrapes: %v vs %v", v1, v2)
		}
	}
	if len(p1.Names()) != len(p2.Names()) {
		t.Fatal("scrapes disagree on the metric name set")
	}
}

// TestFrontShards: topology endpoint reports every backend with health
// and the ring parameters.
func TestFrontShards(t *testing.T) {
	b0, b1 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1")
	f, addrs := newFront(t, b0, b1)

	req := httptest.NewRequest(http.MethodGet, "/shards", nil)
	w := httptest.NewRecorder()
	f.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/shards status %d", w.Code)
	}
	var resp struct {
		VNodes   int `json:"vnodes"`
		Backends []struct {
			Addr    string `json:"addr"`
			Healthy bool   `json:"healthy"`
		} `json:"backends"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.VNodes != 128 {
		t.Fatalf("vnodes = %d, want default 128", resp.VNodes)
	}
	if len(resp.Backends) != 2 {
		t.Fatalf("backends = %d, want 2", len(resp.Backends))
	}
	got := map[string]bool{}
	for _, b := range resp.Backends {
		got[b.Addr] = b.Healthy
	}
	for _, a := range addrs {
		if healthy, ok := got[a]; !ok || !healthy {
			t.Fatalf("backend %s missing or unhealthy in /shards: %v", a, got)
		}
	}
}

// TestAggregatorDegradesWithStaleShard: a healthy backend whose
// /metrics endpoint is wedged must not take the fleet view down — the
// merged page still renders, minus that backend's contribution, and
// quq_shard_stale_shards says exactly how much of the fleet is missing.
func TestAggregatorDegradesWithStaleShard(t *testing.T) {
	b0, b1 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1")
	f, _ := newFront(t, b0, b1)
	if w := classify(t, f.Handler(), `{"model":"ViT-Nano","method":"QUQ","bits":6}`); w.Code != http.StatusOK {
		t.Fatalf("classify: %d", w.Code)
	}

	// Ring ownership hashes the backends' ephemeral httptest ports, so
	// which backend served the classify varies per run. Wedge the idle
	// one: the served backend's counter must survive in the degraded
	// view, which only holds if its /metrics stays scrapeable.
	idle := b1
	if b1.requests.Load() > 0 {
		idle = b0
	}
	idle.metricsBroken.Store(true)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	f.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("fleet view failed outright with one wedged backend: %d", w.Code)
	}
	page, err := metrics.ParseText(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("degraded page does not parse: %v", err)
	}
	if got, ok := page.Scalar("quq_shard_stale_shards"); !ok || got != 1 {
		t.Fatalf("quq_shard_stale_shards = %v (ok=%v), want 1", got, ok)
	}
	if got, ok := page.Scalar("quq_serve_requests_total"); !ok || got != 1 {
		t.Fatalf("working backend's counters missing from degraded view: %v (ok=%v)", got, ok)
	}
	if got := f.Metrics().ScrapeErrors.Value(); got != 1 {
		t.Fatalf("scrape errors = %d, want 1", got)
	}

	// Recovery clears the staleness signal on the next scrape.
	idle.metricsBroken.Store(false)
	w = httptest.NewRecorder()
	f.Handler().ServeHTTP(w, req)
	page, err = metrics.ParseText(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := page.Scalar("quq_shard_stale_shards"); !ok || got != 0 {
		t.Fatalf("quq_shard_stale_shards after recovery = %v (ok=%v), want 0", got, ok)
	}
}

// refuseTransport fails every round trip with a connection error,
// driving the front-end through its full retry schedule.
type refuseTransport struct{}

func (refuseTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return nil, fmt.Errorf("dial %s: connection refused", r.URL.Host)
}

// retrySchedule runs one classify request against a fleet that refuses
// every connection and returns the backoff sleeps the front-end took,
// as recorded by the fake clock.
func retrySchedule(t *testing.T, seed uint64) []time.Duration {
	t.Helper()
	clock := chaos.NewFake()
	f := shard.New(shard.Options{
		Backends:      []string{"127.0.0.1:1", "127.0.0.1:2"},
		ProbeInterval: -1,
		Transport:     refuseTransport{},
		Seed:          seed,
		Clock:         clock,
	})
	t.Cleanup(f.Close)
	w := classify(t, f.Handler(), `{"model":"ViT-Nano","method":"QUQ","bits":6}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("fleet of refused connections answered %d, want 503", w.Code)
	}
	return clock.Sleeps()
}

// TestRetryBackoffSeededAndReproducible: the retry schedule is jittered
// (not the bare doubling base) yet fully determined by Options.Seed —
// two runs with one seed sleep the identical sequence, a different seed
// sleeps a different one. This is the property the chaos harness leans
// on to replay fault scripts byte-for-byte.
func TestRetryBackoffSeededAndReproducible(t *testing.T) {
	a := retrySchedule(t, 42)
	b := retrySchedule(t, 42)
	c := retrySchedule(t, 43)

	// Default Retries=2 against both backends: four backoff sleeps.
	if len(a) != 4 {
		t.Fatalf("retry sleeps = %d, want 4 (2 retries x 2 backends)", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedule lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at sleep %d: %v vs %v", i, a[i], b[i])
		}
	}
	differs := len(a) != len(c)
	for i := 0; !differs && i < len(a); i++ {
		differs = a[i] != c[i]
	}
	if !differs {
		t.Fatal("different seeds produced the identical retry schedule")
	}
	// Equal jitter over a doubling base: each delay sits in
	// [base*2^i / 2, base*2^i) for the per-backend attempt index.
	base := 50 * time.Millisecond
	for i, d := range a {
		step := base << (i % 2)
		if d < step/2 || d >= step {
			t.Fatalf("sleep %d = %v outside equal-jitter window [%v, %v)", i, d, step/2, step)
		}
	}
}

// TestFrontLifecycleLeaksNothing is the goroutine-accounting gate for
// the shard layer: with background probing running, serving traffic and
// then closing the front must reclaim the prober loop and every probe
// it spawned.
func TestFrontLifecycleLeaksNothing(t *testing.T) {
	// Registered first so it runs after every other cleanup (LIFO),
	// i.e. once the backends and front are fully closed.
	t.Cleanup(testutil.VerifyNoLeaks(t))

	a, b := newFakeBackend(t, "a"), newFakeBackend(t, "b")
	f := shard.New(shard.Options{
		Backends:      []string{a.srv.URL, b.srv.URL},
		ProbeInterval: 2 * time.Millisecond,
		Retries:       -1,
		RetryBackoff:  1,
	})
	w := classify(t, f.Handler(), `{"model":"ViT-Nano","method":"QUQ","bits":6,"regime":"full"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("classify through front: status %d: %s", w.Code, w.Body.String())
	}
	f.ProbeNow(context.Background())
	f.Close()
}
