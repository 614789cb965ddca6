package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"quq/internal/chaos"
	"quq/internal/rng"
	"quq/internal/serve"
)

// BackendHeader names the response header the front-end stamps with the
// address of the backend that served a proxied request.
const BackendHeader = "X-Quq-Shard"

// EpochHeader names the response header carrying the membership epoch.
// Every proxied response and every /cluster page is stamped with it, so
// a shard-aware client routing directly to workers can detect — from
// any response it happens to see — that its cached ring view is stale
// and refresh before the next request.
const EpochHeader = "X-Quq-Epoch"

// forwardedHeaders is the allowlist of client request headers the front
// passes on to a backend, on every attempt of every path. The replica
// slot is not on it: that one the front stamps itself.
var forwardedHeaders = []string{serve.LatencyBudgetHeader}

// relayedHeaders is the allowlist of backend response headers the front
// passes back to the client.
var relayedHeaders = []string{"Content-Type", "Retry-After", serve.DigestHeader}

// Front is the sharding front-end: an http.Handler that routes
// inference traffic onto the ring and aggregates fleet observability.
type Front struct {
	opts    Options
	ring    *Ring // the routing index and the roster
	prober  *prober
	met     *Metrics
	client  *http.Client
	clock   chaos.Clock
	handler http.Handler

	// adminMu orders membership mutations (admin.go), so each answer
	// reports its own epoch and the topology gauges end level with the
	// ring. A drain holds it only for the final removal, never across
	// its handoff round trips.
	adminMu sync.Mutex

	rngMu  sync.Mutex
	jitter *rng.Source // retry-backoff jitter stream, seeded by Options.Seed

	// aeStop/aeDone bound the anti-entropy loop (antientropy.go): Close
	// closes aeStop and waits on aeDone, mirroring the prober's
	// stop/done protocol.
	aeStop chan struct{}
	aeDone chan struct{}
}

// New assembles a front-end over opts.Backends and starts its prober.
func New(opts Options) *Front {
	opts.defaults()
	met := NewShardMetrics()
	ring := NewRing(vnodes, maxLoadFactor)
	client := &http.Client{Transport: opts.Transport}
	f := &Front{
		opts:   opts,
		ring:   ring,
		met:    met,
		client: client,
		clock:  opts.Clock,
		jitter: rng.New(opts.Seed),
		prober: newProber(opts.BaseContext, ring, client, opts.ProbeInterval, met),
	}
	for _, addr := range opts.Backends {
		f.join(normalizeAddr(addr))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", f.handleProxy)
	mux.HandleFunc("POST /v1/quantize", f.handleProxy)
	mux.HandleFunc("GET /models", f.handleModels)
	mux.HandleFunc("GET /cluster", f.handleCluster)
	mux.HandleFunc("POST /admin/join", f.handleAdminJoin)
	mux.HandleFunc("POST /admin/drain", f.handleAdminDrain)
	mux.HandleFunc("POST /admin/leave", f.handleAdminLeave)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	f.handler = f.middleware(mux)
	f.prober.Start()
	f.aeStop = make(chan struct{})
	f.aeDone = make(chan struct{})
	if opts.AntiEntropyInterval > 0 {
		go f.antiEntropyLoop()
	} else {
		close(f.aeDone)
	}
	return f
}

// normalizeAddr turns "host:port" into a base URL.
func normalizeAddr(addr string) string {
	addr = strings.TrimSuffix(addr, "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// Handler returns the front-end's HTTP handler.
func (f *Front) Handler() http.Handler { return f.handler }

// Ring exposes the hash ring (introspection, smoke assertions).
func (f *Front) Ring() *Ring { return f.ring }

// Metrics exposes the front-end's own instrument set.
func (f *Front) Metrics() *Metrics { return f.met }

// ProbeNow forces one synchronous health-probe round; each round trip
// is bounded by ctx and the probe timeout.
func (f *Front) ProbeNow(ctx context.Context) { f.prober.ProbeNow(ctx) }

// Close stops the background prober and the anti-entropy loop.
func (f *Front) Close() {
	f.prober.Stop()
	select {
	case <-f.aeStop:
	default:
		close(f.aeStop)
	}
	<-f.aeDone
}

// middleware wraps the mux with panic recovery, request accounting,
// body limiting and the per-request timeout.
func (f *Front) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		f.met.Requests.Inc()
		defer func() {
			f.met.Latency.Observe(time.Since(start).Seconds())
			if rec := recover(); rec != nil {
				f.met.Failures.Inc()
				http.Error(w, fmt.Sprintf("internal error: %v", rec), http.StatusInternalServerError)
			}
		}()
		r.Body = http.MaxBytesReader(w, r.Body, f.opts.MaxBodyBytes)
		ctx, cancel := context.WithTimeout(r.Context(), f.opts.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// selection reads a body's key fields as json.Unmarshal would, without
// parsing the images the front only relays: by serve.ScanSelection for
// the bodies clients send, by encoding/json for anything else.
func selection(body []byte) (serve.Selection, error) {
	if sel, ok := serve.ScanSelection(body); ok {
		return sel, nil
	}
	var sel struct {
		Model  string `json:"model"`
		Method string `json:"method"`
		Bits   int    `json:"bits"`
		Regime string `json:"regime"`
	}
	err := json.Unmarshal(body, &sel)
	return serve.Selection(sel), err
}

// handleProxy routes one classify/quantize request: canonicalize the
// key selection (unknown enums are rejected here, before hashing — the
// same spelling rules the backend registry applies), pick the owning
// backend, and relay its response. Connection failures retry with
// backoff on the same backend, then eject it and fail over to the next
// ring successor; HTTP responses — 429 backpressure above all — are
// relayed as-is, never retried.
func (f *Front) handleProxy(w http.ResponseWriter, r *http.Request) {
	body, err := serve.ReadBody(r, f.opts.MaxBodyBytes)
	if err != nil {
		f.writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	sel, err := selection(body)
	if err != nil {
		f.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	key, err := serve.KeyFromWire(sel.Model, sel.Method, sel.Bits, sel.Regime)
	if err != nil {
		f.writeError(w, http.StatusBadRequest, err)
		return
	}

	// Calibration-bearing requests replicate: a quantize warms all R
	// owners so a key's artifact survives any R-1 departures. Reads (and
	// everything at R = 1) take the single-backend path below.
	if f.opts.Replicas > 1 && r.URL.Path == "/v1/quantize" {
		f.proxyReplicated(w, r, key.String(), body)
		return
	}

	exclude := map[*Backend]bool{}
	for {
		b, replica, err := f.pickReplica(key.String(), exclude)
		if err != nil {
			f.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("%w for key %s", err, key))
			return
		}
		if len(exclude) > 0 {
			f.met.Failovers.Inc()
		}
		resp, err := f.forward(r.Context(), b, r.URL.Path, r.Header, body, replica, f.drawDelays())
		if err != nil {
			if cerr := r.Context().Err(); cerr != nil {
				// The client hung up or its deadline expired while the
				// backend was still working: that says nothing about the
				// backend, so its health is left alone.
				f.writeError(w, http.StatusGatewayTimeout, cerr)
				return
			}
			// The backend is unreachable after retries: eject it so the
			// ring stops routing there until a probe readmits it, and move
			// this request to the next successor.
			eject(b, f.met)
			f.met.Healthy.Set(int64(f.ring.HealthyCount()))
			exclude[b] = true
			continue
		}
		f.relay(w, resp, b)
		return
	}
}

// pickReplica chooses the backend for a read. With replication on, the
// key's replica set is tried in slot order first — those are the
// backends holding (or entitled to hold) the calibration, and a slot's
// identity survives its siblings' health flaps — and only when every
// replica is excluded or unhealthy does the walk continue past the set
// via Pick, which preserves the R = 1 failover semantics: a read never
// fails while any healthy backend remains, it just pays a fresh
// calibration beyond the replica set. The int is the replica slot the
// choice occupies, -1 when the backend is outside the set.
func (f *Front) pickReplica(key string, exclude map[*Backend]bool) (*Backend, int, error) {
	if f.opts.Replicas > 1 {
		for slot, b := range f.ring.OwnerN(key, f.opts.Replicas) {
			if !exclude[b] && b.healthy.Load() {
				return b, slot, nil
			}
		}
	}
	b, err := f.ring.Pick(key, exclude)
	return b, -1, err
}

// proxyReplicated fans one quantize out to every healthy replica owner
// of the key, concurrently, and relays the lowest-slot success. The
// replica set itself is placement-pure: an ejected owner is skipped
// (it re-warms on demand once readmitted), never substituted — writes
// past the set would smear calibrations onto non-owners and break the
// at-most-R-builds invariant. Owners that fail mid-request are ejected
// like any other connection failure — unless the request itself was
// cancelled, which fails every owner at once and blames none; the
// request fails only when every replica is unreachable.
func (f *Front) proxyReplicated(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	slots := []int{}
	owners := []*Backend{}
	for slot, b := range f.ring.OwnerN(key, f.opts.Replicas) {
		if b.healthy.Load() {
			slots = append(slots, slot)
			owners = append(owners, b)
		}
	}
	if len(owners) == 0 {
		f.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("%w for key %s", ErrNoBackends, key))
		return
	}
	// Draw every owner's retry schedule in slot order before any
	// goroutine starts: the jitter stream is shared, and drawing inside
	// the goroutines would order the draws by scheduler whim — breaking
	// the byte-identical replays the chaos harness holds over this path.
	schedules := make([][]time.Duration, len(owners))
	for i := range owners {
		schedules[i] = f.drawDelays()
	}
	resps := make([]*http.Response, len(owners))
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i, b := range owners {
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			resps[i], errs[i] = f.forward(r.Context(), b, r.URL.Path, r.Header, body, slots[i], schedules[i])
		}(i, b)
	}
	wg.Wait()
	if cerr := r.Context().Err(); cerr != nil {
		// A cancelled or expired request fails every owner's round trip at
		// once; none of them is at fault (see handleProxy).
		for _, resp := range resps {
			if resp != nil {
				discard(resp)
			}
		}
		f.writeError(w, http.StatusGatewayTimeout, cerr)
		return
	}
	relay := -1
	for i := range owners {
		switch {
		case errs[i] != nil:
			eject(owners[i], f.met)
		case relay < 0:
			relay = i
		default:
			discard(resps[i])
		}
	}
	f.met.Healthy.Set(int64(f.ring.HealthyCount()))
	if relay < 0 {
		f.writeError(w, http.StatusBadGateway,
			fmt.Errorf("shard: all %d replicas unreachable for key %s: %w", len(owners), key, errs[0]))
		return
	}
	f.relay(w, resps[relay], owners[relay])
}

// drawDelays draws one forward's full retry schedule under the rng
// mutex. Schedules are drawn whole, in request (and replica-slot)
// order, so the shared jitter stream's consumption sequence is a pure
// function of the request sequence — never of goroutine interleaving.
func (f *Front) drawDelays() []time.Duration {
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	return retryDelays(f.jitter, retryBackoff, retries)
}

// discard drains and closes a response that will not be relayed (the
// non-primary replicas of a fan-out).
func discard(resp *http.Response) {
	//quq:errdrop-ok best-effort drain for connection reuse; the response is deliberately unrelayed
	_, _ = io.Copy(io.Discard, resp.Body)
	//quq:errdrop-ok closing an unrelayed response has no remaining audience
	_ = resp.Body.Close()
}

// forward posts body to one backend, retrying connection failures with
// seeded equal-jitter backoff (the schedule is pre-drawn by drawDelays)
// slept through the injected clock. The allowlisted headers of the
// client's request (hdr) ride along, and replica >= 0 stamps the
// request with the replica slot the backend occupies for this key. Any
// HTTP response, whatever its status, is final.
func (f *Front) forward(ctx context.Context, b *Backend, path string, hdr http.Header, body []byte, replica int, delays []time.Duration) (*http.Response, error) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			f.met.Retries.Inc()
			if err := f.clock.Sleep(ctx, delays[attempt-1]); err != nil {
				return nil, err
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.addr+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		for _, name := range forwardedHeaders {
			if v := hdr.Get(name); v != "" {
				req.Header.Set(name, v)
			}
		}
		if replica >= 0 {
			req.Header.Set(serve.ReplicaHeader, strconv.Itoa(replica))
		}
		resp, err := f.client.Do(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// relay copies one backend response to the client, stamping which shard
// served it.
func (f *Front) relay(w http.ResponseWriter, resp *http.Response, b *Backend) {
	defer func() {
		// A failed drain or close only matters to the connection pool;
		// the response bytes were already relayed to the client.
		//quq:errdrop-ok best-effort drain for connection reuse; bytes already relayed
		_, _ = io.Copy(io.Discard, resp.Body)
		//quq:errdrop-ok response already relayed; nothing left to report to the client
		resp.Body.Close()
	}()
	for _, name := range relayedHeaders {
		if v := resp.Header.Get(name); v != "" {
			w.Header().Set(name, v)
		}
	}
	w.Header().Set(BackendHeader, b.addr)
	w.Header().Set(EpochHeader, strconv.FormatUint(f.ring.Epoch(), 10))
	if resp.StatusCode == http.StatusTooManyRequests {
		f.met.Backpressure.Inc()
	}
	if resp.StatusCode >= 500 {
		f.met.Failures.Inc()
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		// The client hung up mid-relay; the failure counter is the only
		// remaining audience.
		f.met.Failures.Inc()
	}
}

// handleHealthz is the front-end's own liveness view: healthy while at
// least one backend is admitted.
func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := f.ring.HealthyCount()
	f.met.Healthy.Set(int64(healthy))
	code := http.StatusOK
	status := "ok"
	if healthy == 0 {
		code = http.StatusServiceUnavailable
		status = "no healthy backends"
	}
	f.writeJSON(w, code, map[string]any{
		"status":   status,
		"healthy":  healthy,
		"backends": len(f.ring.Backends()),
	})
}

// handleModels aggregates the fleet's /models: configs and methods from
// the first reachable backend (identical across a homogeneous fleet),
// cached registry entries merged from every healthy backend and sorted
// for a deterministic cluster view.
func (f *Front) handleModels(w http.ResponseWriter, r *http.Request) {
	type modelsPage struct {
		Models  []json.RawMessage `json:"models"`
		Methods []json.RawMessage `json:"methods"`
		Entries []serve.EntryInfo `json:"entries"`
	}
	var first *modelsPage
	var entries []serve.EntryInfo
	for _, b := range f.ring.Backends() {
		if !b.Healthy() {
			continue
		}
		var page modelsPage
		if err := f.getJSON(r.Context(), b.addr+"/models", &page); err != nil {
			f.met.ScrapeErrors.Inc()
			continue
		}
		if first == nil {
			first = &page
		}
		entries = append(entries, page.Entries...)
	}
	if first == nil {
		f.writeError(w, http.StatusServiceUnavailable, ErrNoBackends)
		return
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	f.writeJSON(w, http.StatusOK, modelsPage{Models: first.Models, Methods: first.Methods, Entries: entries})
}

// getJSON fetches and decodes one backend JSON page.
func (f *Front) getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(body, out)
}

// writeJSON writes a JSON response; an encode failure means the client
// disconnected, which only the failure counter needs to know.
func (f *Front) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.met.Failures.Inc()
	}
}

// writeError renders an error with the front-end's status taxonomy.
func (f *Front) writeError(w http.ResponseWriter, code int, err error) {
	if errors.Is(err, serve.ErrBadRequest) {
		code = http.StatusBadRequest
	}
	if code >= 500 {
		f.met.Failures.Inc()
	}
	f.writeJSON(w, code, map[string]string{"error": err.Error()})
}
