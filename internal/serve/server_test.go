package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/snapstore"
	"quq/internal/tensor"
	"quq/internal/testutil"
	"quq/internal/vit"
)

// testServer builds a server over a cheap ViT-Nano registry.
func testServer(t *testing.T, bopts BatcherOptions) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		Registry:       testRegistryOptions(),
		Batcher:        bopts,
		RequestTimeout: 60 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	drainOnCleanup(t, s)
	return s, ts
}

// drainOnCleanup drains d when the test ends. An undrained registry
// keeps its builds' statistics-release goroutines asleep in their grace
// after the test returns, and TestServerLifecycleLeaksNothing counts one
// that had not yet reached its sleep at its first census as a leak.
func drainOnCleanup(t testing.TB, d interface{ Drain(context.Context) error }) {
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := d.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
}

// flatImages renders n deterministic ViT-Nano images as flat slices.
func flatImages(n int) ([][]float64, []*tensor.Tensor) {
	imgs := data.Images(vit.ViTNano, n, 1234)
	flat := make([][]float64, n)
	for i, img := range imgs {
		flat[i] = append([]float64(nil), img.Data()...)
	}
	return flat, imgs
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestServeEndToEndConcurrent is the acceptance test: 16 concurrent
// clients (under -race via check.sh) must receive responses bit-identical
// to direct QuantizedModel.Forward calls, while the registry calibrates
// the shared key exactly once.
func TestServeEndToEndConcurrent(t *testing.T) {
	s, ts := testServer(t, BatcherOptions{MaxBatch: 4, QueueCap: 256})
	const clients = 16
	flat, imgs := flatImages(clients)

	// Reference outputs from a twin registry with identical options: the
	// server must reproduce them bit-for-bit over HTTP.
	ref := NewRegistry(testRegistryOptions(), nil)
	drainOnCleanup(t, ref)
	key := nanoKey("QUQ", ptq.Full)
	qref, _, err := ref.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	want := qref.ForwardBatch(imgs, 0)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/classify", classifyRequest{
				modelRequest: modelRequest{Model: "ViT-Nano", Method: "QUQ", Bits: 6, Regime: "full"},
				Images:       [][]float64{flat[c]},
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", c, resp.StatusCode, body)
				return
			}
			var cr classifyResponse
			if err := json.Unmarshal(body, &cr); err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			if len(cr.Results) != 1 {
				t.Errorf("client %d: %d results", c, len(cr.Results))
				return
			}
			got := cr.Results[0]
			if got.ArgMax != want[c].ArgMax() {
				t.Errorf("client %d: argmax %d, want %d", c, got.ArgMax, want[c].ArgMax())
			}
			for j, v := range got.Logits {
				if v != want[c].Data()[j] {
					t.Errorf("client %d: logit %d = %v, want %v (not bit-identical)", c, j, v, want[c].Data()[j])
					return
				}
			}
		}(c)
	}
	wg.Wait()

	if misses := s.Metrics().CacheMisses.Value(); misses != 1 {
		t.Fatalf("cache misses = %d: the registry must calibrate the key exactly once", misses)
	}
	if imgsServed := s.Metrics().Images.Value(); imgsServed != clients {
		t.Fatalf("images served = %d, want %d", imgsServed, clients)
	}
}

// TestServeMultiImageRequest exercises the batched request shape.
func TestServeMultiImageRequest(t *testing.T) {
	_, ts := testServer(t, BatcherOptions{MaxBatch: 8, QueueCap: 64})
	flat, _ := flatImages(3)
	resp, body := postJSON(t, ts.URL+"/v1/classify", classifyRequest{
		modelRequest: modelRequest{Model: "ViT-Nano", Method: "BaseQ", Bits: 6},
		Images:       flat,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr classifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Results) != 3 {
		t.Fatalf("%d results, want 3", len(cr.Results))
	}
	if cr.Key != "ViT-Nano/BaseQ/w6a6/partial" {
		t.Fatalf("key = %q", cr.Key)
	}
}

// TestServeQuantizeWarmsCache: /v1/quantize then /v1/classify must not
// re-calibrate.
func TestServeQuantizeWarmsCache(t *testing.T) {
	s, ts := testServer(t, BatcherOptions{MaxBatch: 4, QueueCap: 64})
	warm := modelRequest{Model: "ViT-Nano", Method: "BaseQ", Bits: 6}
	resp, body := postJSON(t, ts.URL+"/v1/quantize", warm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quantize status %d: %s", resp.StatusCode, body)
	}
	var qr quantizeResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Cached {
		t.Fatal("first quantize reported cached")
	}
	resp, body = postJSON(t, ts.URL+"/v1/quantize", warm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second quantize status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Cached {
		t.Fatal("second quantize not cached")
	}
	if s.Metrics().CacheMisses.Value() != 1 {
		t.Fatalf("misses = %d, want 1", s.Metrics().CacheMisses.Value())
	}
}

// TestServeBadRequests walks the 4xx taxonomy.
func TestServeBadRequests(t *testing.T) {
	_, ts := testServer(t, BatcherOptions{})
	flat, _ := flatImages(1)

	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown model", classifyRequest{modelRequest: modelRequest{Model: "GPT-7"}, Images: flat}, 400},
		{"unknown method", classifyRequest{modelRequest: modelRequest{Method: "nope"}, Images: flat}, 400},
		{"bad bits", classifyRequest{modelRequest: modelRequest{Bits: 2}, Images: flat}, 400},
		{"bad regime", classifyRequest{modelRequest: modelRequest{Regime: "half"}, Images: flat}, 400},
		{"no images", classifyRequest{}, 400},
		{"short image", classifyRequest{Images: [][]float64{{1, 2, 3}}}, 400},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/classify", tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.want, body)
		}
	}

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	// Wrong HTTP method.
	getResp, err := http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/classify: status %d, want 405", getResp.StatusCode)
	}
}

// TestServeBodyLimit: oversized bodies must be refused, not buffered.
func TestServeBodyLimit(t *testing.T) {
	s := New(Config{
		Registry:     testRegistryOptions(),
		MaxBodyBytes: 1024,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	big := strings.NewReader(`{"images":[[` + strings.Repeat("1,", 4096) + `1]]}`)
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 400/413", resp.StatusCode)
	}

	// The whole body is read before it is decoded, so a valid request
	// padded past the cap is refused too, before the registry sees it.
	flat, _ := flatImages(1)
	body, err := json.Marshal(classifyRequest{
		modelRequest: modelRequest{Model: "ViT-Nano", Method: "BaseQ", Bits: 6},
		Images:       flat,
	})
	if err != nil {
		t.Fatal(err)
	}
	s = New(Config{Registry: testRegistryOptions(), MaxBodyBytes: int64(len(body)) + 8})
	ts2 := httptest.NewServer(s.Handler())
	defer ts2.Close()
	padded := append(body, bytes.Repeat([]byte(" "), 16)...)
	// With a Content-Length and chunked, without one.
	for _, r := range []io.Reader{bytes.NewReader(padded), io.MultiReader(bytes.NewReader(padded))} {
		resp, err := http.Post(ts2.URL+"/v1/classify", "application/json", r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("valid request padded past the cap: status %d, want 400", resp.StatusCode)
		}
	}
	if misses := s.Metrics().CacheMisses.Value(); misses != 0 {
		t.Fatalf("%d cache misses: an oversized body reached the registry", misses)
	}
}

// TestServeZeroConfigServesALoneSingle pins the scheduler a zero config
// boots — what bench/ and every embedder get: a lone single-image
// classify on an idle server is taken by the worker its submit starts,
// with nothing else to move it (the request timeout only bounds how long
// a regression takes to fail).
func TestServeZeroConfigServesALoneSingle(t *testing.T) {
	s := New(Config{
		Registry:       testRegistryOptions(),
		RequestTimeout: 30 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	drainOnCleanup(t, s)
	flat, _ := flatImages(1)
	resp, body := postJSON(t, ts.URL+"/v1/classify", classifyRequest{
		modelRequest: modelRequest{Model: "ViT-Nano", Method: "BaseQ", Bits: 6},
		Images:       flat,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-image classify on an idle server: status %d: %s", resp.StatusCode, body)
	}
}

// TestServeBackpressure: with a full queue the server must answer 429
// with a Retry-After hint.
func TestServeBackpressure(t *testing.T) {
	// The one worker parks inside the forward of the first request, whose
	// two images fill the queue until the gate opens.
	gate := make(chan struct{})
	s := New(Config{
		Registry:       testRegistryOptions(),
		Batcher:        BatcherOptions{MaxBatch: 64, QueueCap: 2, Workers: 1, ForwardHook: func(string) { <-gate }},
		RequestTimeout: 60 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	flat, _ := flatImages(3)
	warmKey := modelRequest{Model: "ViT-Nano", Method: "BaseQ", Bits: 6}
	if resp, body := postJSON(t, ts.URL+"/v1/quantize", warmKey); resp.StatusCode != 200 {
		t.Fatalf("warm: %d %s", resp.StatusCode, body)
	}

	// Two images sit in a held forward...
	stuck := make(chan struct{})
	go func() {
		defer close(stuck)
		postJSON(t, ts.URL+"/v1/classify", classifyRequest{modelRequest: warmKey, Images: flat[:2]})
	}()
	waitFor(t, func() bool { return s.Metrics().QueueDepth.Value() == 2 })

	// ...so a third image must bounce with 429.
	resp, body := postJSON(t, ts.URL+"/v1/classify", classifyRequest{modelRequest: warmKey, Images: flat[2:3]})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Once the gate opens, drain waits the stuck request out.
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	<-stuck
}

// TestServeIntrospection covers /models, /healthz and /metrics.
func TestServeIntrospection(t *testing.T) {
	_, ts := testServer(t, BatcherOptions{})
	warm := modelRequest{Model: "ViT-Nano", Method: "BaseQ", Bits: 6}
	if resp, body := postJSON(t, ts.URL+"/v1/quantize", warm); resp.StatusCode != 200 {
		t.Fatalf("warm: %d %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var mr modelsResponse
	err = json.NewDecoder(resp.Body).Decode(&mr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Models) != len(vit.ZooConfigs)+1 {
		t.Fatalf("%d models, want %d", len(mr.Models), len(vit.ZooConfigs)+1)
	}
	if len(mr.Methods) == 0 || mr.Methods[0] != "QUQ" {
		t.Fatalf("methods = %v", mr.Methods)
	}
	if len(mr.Entries) != 1 || !mr.Entries[0].Ready {
		t.Fatalf("entries = %+v", mr.Entries)
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if path == "/metrics" && !strings.Contains(buf.String(), "quq_serve_model_cache_misses_total 1") {
			t.Fatalf("/metrics missing expected series:\n%s", buf.String())
		}
	}
}

// TestRecoveryMiddleware: a panicking handler must become a 500 and a
// panic-counter increment, not a dead server.
func TestRecoveryMiddleware(t *testing.T) {
	s := New(Config{Registry: testRegistryOptions()})
	boom := s.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(fmt.Errorf("boom"))
	}))
	rec := httptest.NewRecorder()
	boom.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if s.Metrics().Panics.Value() != 1 {
		t.Fatalf("panics = %d, want 1", s.Metrics().Panics.Value())
	}
}

// waitFor polls cond for up to 30s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestServerLifecycleLeaksNothing is the goroutine-accounting gate for
// the serving layer: after serving real traffic (including a detached
// registry build and batched classifies), Drain plus closing the HTTP
// server must reclaim every goroutine the stack started.
func TestServerLifecycleLeaksNothing(t *testing.T) {
	// Registered first so it runs after every other cleanup (LIFO): the
	// goroutine census happens once the test server is fully closed.
	t.Cleanup(testutil.VerifyNoLeaks(t))

	s := New(Config{
		Registry:       testRegistryOptions(),
		Batcher:        BatcherOptions{MaxBatch: 4, QueueCap: 64},
		RequestTimeout: 60 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/quantize", modelRequest{Model: "ViT-Nano", Method: "QUQ", Bits: 6, Regime: "full"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quantize: status %d: %s", resp.StatusCode, body)
	}
	flat, _ := flatImages(2)
	resp, body = postJSON(t, ts.URL+"/v1/classify", classifyRequest{
		modelRequest: modelRequest{Model: "ViT-Nano", Method: "QUQ", Bits: 6, Regime: "full"},
		Images:       flat,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: status %d: %s", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServeSnapshotInstallTakesLargeModels: the anti-entropy repair path
// must be able to install any snapshot the store can hold. A DeiT-B
// snapshot is ~18 MB — over the 8 MiB JSON routes get — so POST
// /v1/snapshot carries its own bound; classify keeps the small one.
func TestServeSnapshotInstallTakesLargeModels(t *testing.T) {
	// Hand-assembled: the route's bound is about bytes, not calibration.
	key := Key{Config: vit.DeiTBase.Name, Method: "QUQ", Bits: 6, Regime: ptq.Partial}
	blob, digest, err := snapstore.Encode(key.String(), &ptq.QuantizedModel{
		Model: vit.New(vit.DeiTBase, 1), Bits: key.Bits, Regime: key.Regime, Method: key.Method,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Registry: testRegistryOptions()})
	if int64(len(blob)) <= s.cfg.MaxBodyBytes {
		t.Fatalf("fixture is %d bytes, inside the %d-byte default: it proves nothing", len(blob), s.cfg.MaxBodyBytes)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("installing a %d-byte snapshot at default flags: status %d: %.200s", len(blob), resp.StatusCode, body)
	}
	if got := resp.Header.Get(DigestHeader); got != digest {
		t.Fatalf("installed digest %q, sent %q", got, digest)
	}
	if got := s.Registry().Digest(key); got != digest {
		t.Fatalf("registry serves digest %q for %s, installed %q", got, key, digest)
	}

	// The same bytes at a JSON route still hit the default bound.
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d bytes at /v1/classify: status %d, want 400/413", len(blob), resp.StatusCode)
	}
}

// FuzzQuantizeRequest drives POST /v1/quantize with arbitrary bodies
// through a server whose BuildHook refuses every build, so nothing is
// ever calibrated. A body the handler's JSON decode or KeyFromWire
// rejects answers 4xx and never reaches the hook; an accepted body
// reaches it once, with exactly KeyFromWire's key, and answers the
// hook's own 500. No body panics or fails in any other way.
func FuzzQuantizeRequest(f *testing.F) {
	errRefused := errors.New("fuzz: build refused")
	var (
		mu     sync.Mutex
		hooked []Key
	)
	opts := testRegistryOptions()
	opts.BuildHook = func(k Key) error {
		mu.Lock()
		hooked = append(hooked, k)
		mu.Unlock()
		return errRefused
	}
	s := New(Config{Registry: opts})
	drainOnCleanup(f, s)
	for _, b := range []string{
		`{"model":"ViT-S","bits":6,"regime":"full"}`, `{}`, `null`,
		`{"model":"vit-nano","method":"quq","regime":"PARTIAL"}`,
		`{"model":"ViT-S"} trailing`, `{"bits":2}`, `{"bits":17}`, `{"bits":"6"}`,
		`{"bits":6.5}`, `{"bits":1e400}`, `{"model":"QUQ"}`, `{"method":"ViT-S"}`,
		`{"regime":"bogus"}`, `[1]`, `not json`, ``,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		mu.Lock()
		hooked = hooked[:0]
		mu.Unlock()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/quantize", bytes.NewReader(body)))
		mu.Lock()
		got := append([]Key(nil), hooked...)
		mu.Unlock()

		var req modelRequest
		want, err := Key{}, json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		if err == nil {
			want, err = KeyFromWire(req.Model, req.Method, req.Bits, req.Regime)
		}
		if err != nil {
			if rec.Code < 400 || rec.Code >= 500 || len(got) != 0 {
				t.Fatalf("%q (rejected: %v): status %d, hook saw %v; want 4xx and no build", body, err, rec.Code, got)
			}
			return
		}
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), errRefused.Error()) ||
			len(got) != 1 || got[0] != want {
			t.Fatalf("%q (key %v): status %d %s, hook saw %v; want the hook's 500 for exactly that key", body, want, rec.Code, rec.Body, got)
		}
	})
}
