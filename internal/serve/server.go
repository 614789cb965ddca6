package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/snapstore"
	"quq/internal/tensor"
)

// ReplicaHeader names the request header a replicating front-end (or a
// shard-aware client) stamps with the replica slot this backend holds
// for the request's key: 0 is the primary owner, 1..R-1 the successor
// replicas. The index is recorded on the registry entry and surfaced by
// /models; it never influences the cache key or the computation, so a
// wrong or missing header costs observability, not correctness.
const ReplicaHeader = "X-Quq-Replica"

// LatencyBudgetHeader names the request header a client sets to attach
// a per-request latency budget to a classify call (a Go duration such
// as "50ms"). Admission control sheds the request with 429 when its
// estimated queue wait already exceeds the budget; it overrides the
// server-wide -latency-budget default for that request only.
const LatencyBudgetHeader = "X-Quq-Latency-Budget"

// DigestHeader names the response header classify/quantize/snapshot
// responses stamp with the served entry's snapshot content address (hex
// SHA-256 of the snapshot payload). Replicas built from byte-identical
// calibrations carry identical digests, so the header lets any caller —
// and the anti-entropy sweeper — check replica agreement without
// downloading state. Absent when the entry is not snapshottable.
const DigestHeader = "X-Quq-Digest"

// snapshotPath is the snapshot transfer route (GET serves a key's file
// image, POST installs one).
const snapshotPath = "/v1/snapshot"

// Config assembles the server from its tunables.
type Config struct {
	// Registry tunes the model registry: which configs are servable, the
	// calibration sample budget, and the cache capacity.
	Registry RegistryOptions
	// Batcher tunes the micro-batching scheduler: batch geometry, the
	// load-regime linger, queue capacity, worker pool, and the default
	// latency budget.
	Batcher BatcherOptions
	// Governor pins the occupancy-adaptive scheduler's worker ceiling and
	// clock for tests and the chaos harness; the zero value is what a
	// deployment runs.
	Governor GovernorOptions
	// RequestTimeout bounds one request end-to-end, including a
	// first-request calibration (default 60s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps the request body (default 8 MiB) on every route
	// but the snapshot one, whose bodies are whole models and are capped
	// at snapstore.MaxFileBytes instead.
	MaxBodyBytes int64
}

// maxImagesPerRequest caps the images in one classify call.
const maxImagesPerRequest = 64

func (c *Config) defaults() {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
}

// Server is the HTTP inference service.
type Server struct {
	cfg     Config
	met     *Metrics
	reg     *Registry
	bat     *Batcher
	handler http.Handler
}

// New assembles the service.
func New(cfg Config) *Server {
	cfg.defaults()
	met := NewMetrics()
	gov := NewGovernor(cfg.Governor, met)
	s := &Server{
		cfg: cfg,
		met: met,
		reg: NewRegistry(cfg.Registry, met),
		bat: NewBatcher(cfg.Batcher, gov, met),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", s.handleClassify)
	mux.HandleFunc("POST /v1/quantize", s.handleQuantize)
	mux.HandleFunc("GET "+snapshotPath, s.handleSnapshotGet)
	mux.HandleFunc("POST "+snapshotPath, s.handleSnapshotPost)
	mux.HandleFunc("GET /models", s.handleModels)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.middleware(mux)
	return s
}

// Handler returns the fully wrapped HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Registry exposes the model registry (introspection, warm-up, tests).
func (s *Server) Registry() *Registry { return s.reg }

// SetIntPath toggles the fully-integer weight path at runtime; see
// Registry.SetIntPath.
func (s *Server) SetIntPath(on bool) (int, error) { return s.reg.SetIntPath(on) }

// Metrics exposes the instrument set.
func (s *Server) Metrics() *Metrics { return s.met }

// Drain stops admission, waits for in-flight batches, then joins any
// detached registry builds (graceful shutdown; pair with
// http.Server.Shutdown).
func (s *Server) Drain(ctx context.Context) error {
	if err := s.bat.Drain(ctx); err != nil {
		return err
	}
	return s.reg.Drain(ctx)
}

// middleware wraps the mux with, outermost first: panic recovery,
// request accounting and latency, body size limiting, and the
// per-request timeout context.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.Requests.Inc()
		defer func() {
			s.met.Latency.Observe(time.Since(start).Seconds())
			if rec := recover(); rec != nil {
				s.met.Panics.Inc()
				s.met.Failures.Inc()
				http.Error(w, fmt.Sprintf("internal error: %v", rec), http.StatusInternalServerError)
			}
		}()
		limit := s.cfg.MaxBodyBytes
		if r.URL.Path == snapshotPath {
			// A snapshot is a whole model: DeiT-B is 18 MB, ViT-L 42 MB.
			limit = snapstore.MaxFileBytes
		}
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// modelRequest is the key-selecting part of a request body; zero values
// pick the defaults (QUQ, 6 bits, partial — the paper's headline
// setting).
type modelRequest struct {
	Model  string `json:"model"`
	Method string `json:"method"`
	Bits   int    `json:"bits"`
	Regime string `json:"regime"`
}

// key validates and canonicalizes the selection (defaults, spelling,
// enum membership) via the same KeyFromWire the quq-shard front-end
// hashes with, so routing and caching always agree on key identity.
func (m *modelRequest) key() (Key, error) {
	return KeyFromWire(m.Model, m.Method, m.Bits, m.Regime)
}

type classifyRequest struct {
	modelRequest
	Images [][]float64 `json:"images"`
}

type classifyResult struct {
	ArgMax int       `json:"argmax"`
	Logits []float64 `json:"logits"`
}

type classifyResponse struct {
	Key     string           `json:"key"`
	Results []classifyResult `json:"results"`
}

// handleClassify decodes images, resolves (building if needed) the
// quantized model, routes the images through the micro-batcher and
// returns per-image logits.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	body, err := ReadBody(r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	req, err := decodeClassify(body)
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	if len(req.Images) == 0 {
		s.writeError(w, fmt.Errorf("%w: no images", ErrBadRequest))
		return
	}
	if len(req.Images) > maxImagesPerRequest {
		s.writeError(w, fmt.Errorf("%w: %d images exceeds the per-request limit %d",
			ErrBadRequest, len(req.Images), maxImagesPerRequest))
		return
	}
	key, err := req.key()
	if err != nil {
		s.writeError(w, err)
		return
	}
	cfg, ok := s.reg.Config(key.Config)
	if !ok {
		s.writeError(w, fmt.Errorf("%w %q", ErrUnknownModel, key.Config))
		return
	}
	images := make([]*tensor.Tensor, len(req.Images))
	for i, flat := range req.Images {
		img, err := data.ImageFromFlat(cfg, flat)
		if err != nil {
			s.writeError(w, fmt.Errorf("%w: image %d: %v", ErrBadRequest, i, err))
			return
		}
		images[i] = img
	}
	// Everything that can make this a 400 is settled before the registry
	// sees the key: Get calibrates a key it has not seen.
	budget, err := latencyBudgetFrom(r)
	if err != nil {
		s.writeError(w, err)
		return
	}

	qm, _, err := s.reg.Get(r.Context(), key)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.reg.NoteReplica(key, replicaFrom(r))
	if d := s.reg.Digest(key); d != "" {
		w.Header().Set(DigestHeader, d)
	}
	items, err := s.bat.SubmitBudget(r.Context(), key.String(), qm, images, budget)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if err := Await(r.Context(), items); err != nil {
		s.writeError(w, err)
		return
	}
	resp := classifyResponse{Key: key.String(), Results: make([]classifyResult, len(items))}
	for i, it := range items {
		if it.Err != nil {
			s.writeError(w, it.Err)
			return
		}
		resp.Results[i] = classifyResult{ArgMax: it.Out.ArgMax(), Logits: it.Out.Data()}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

type quantizeResponse struct {
	Key     string  `json:"key"`
	Cached  bool    `json:"cached"`
	BuildMS float64 `json:"build_ms"`
}

// handleQuantize warms a registry entry without classifying anything.
func (s *Server) handleQuantize(w http.ResponseWriter, r *http.Request) {
	var req modelRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	key, err := req.key()
	if err != nil {
		s.writeError(w, err)
		return
	}
	start := time.Now()
	_, cached, err := s.reg.Get(r.Context(), key)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.reg.NoteReplica(key, replicaFrom(r))
	if d := s.reg.Digest(key); d != "" {
		w.Header().Set(DigestHeader, d)
	}
	s.writeJSON(w, http.StatusOK, quantizeResponse{
		Key:     key.String(),
		Cached:  cached,
		BuildMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// handleSnapshotGet serves a key's snapshot file image — the transfer
// format anti-entropy repair re-pushes to a divergent replica. The key
// comes URL-escaped in the ?key= query parameter.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	keyStr := r.URL.Query().Get("key")
	if keyStr == "" {
		s.writeError(w, fmt.Errorf("%w: missing key query parameter", ErrBadRequest))
		return
	}
	key, err := ParseKey(keyStr)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if s.reg.Warming() {
		s.writeError(w, ErrWarming)
		return
	}
	blob, digest, err := s.reg.Snapshot(key)
	if err != nil {
		if errors.Is(err, ErrSnapshotUnavailable) {
			s.writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
			return
		}
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(DigestHeader, digest)
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(blob); err != nil {
		// The client hung up mid-transfer; the failure counter is the
		// only remaining audience.
		s.met.Failures.Inc()
	}
}

type snapshotInstallResponse struct {
	Key    string `json:"key"`
	Digest string `json:"digest"`
}

// handleSnapshotPost verifies and installs a snapshot file image,
// replacing the key's resident entry — the write half of the
// anti-entropy repair path.
func (s *Server) handleSnapshotPost(w http.ResponseWriter, r *http.Request) {
	if s.reg.Warming() {
		s.writeError(w, ErrWarming)
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: reading body: %v", ErrBadRequest, err))
		return
	}
	key, digest, err := s.reg.InstallSnapshot(data)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set(DigestHeader, digest)
	s.writeJSON(w, http.StatusOK, snapshotInstallResponse{Key: key, Digest: digest})
}

// latencyBudgetFrom reads the per-request latency budget header; zero
// (defer to the server-wide default) when absent. A malformed duration
// is a client mistake and reported as one, not silently ignored —
// otherwise a typo would quietly disable the shedding the client asked
// for.
func latencyBudgetFrom(r *http.Request) (time.Duration, error) {
	v := r.Header.Get(LatencyBudgetHeader)
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("%w: invalid %s %q (want a positive Go duration such as 50ms)",
			ErrBadRequest, LatencyBudgetHeader, v)
	}
	return d, nil
}

// replicaFrom reads the replica slot off a request; -1 when the header
// is absent or malformed (direct traffic carries no replica identity).
func replicaFrom(r *http.Request) int {
	v := r.Header.Get(ReplicaHeader)
	if v == "" {
		return -1
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

type modelInfo struct {
	Name      string `json:"name"`
	Variant   string `json:"variant"`
	ImageSize int    `json:"image_size"`
	Channels  int    `json:"channels"`
	Classes   int    `json:"classes"`
	Pixels    int    `json:"pixels"` // flat image length /v1/classify expects
}

type modelsResponse struct {
	Models  []modelInfo `json:"models"`
	Methods []string    `json:"methods"`
	Entries []EntryInfo `json:"entries"`
}

// handleModels lists servable configs, methods, and cached entries.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	resp := modelsResponse{Methods: MethodNames(), Entries: s.reg.Entries()}
	for _, name := range s.reg.ConfigNames() {
		cfg, _ := s.reg.Config(name)
		resp.Models = append(resp.Models, modelInfo{
			Name:      cfg.Name,
			Variant:   cfg.Variant.String(),
			ImageSize: cfg.ImageSize,
			Channels:  cfg.Channels,
			Classes:   cfg.Classes,
			Pixels:    cfg.Channels * cfg.ImageSize * cfg.ImageSize,
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.noteIntDeclines()
	if err := s.met.Registry.WriteText(w); err != nil {
		// The client hung up mid-scrape; nothing useful left to do.
		s.met.Failures.Inc()
	}
}

// writeJSON writes a JSON response; an encode failure means the client
// disconnected, which only the failure counter needs to know.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.met.Failures.Inc()
	}
}

// writeError maps an error onto the HTTP status taxonomy: client
// mistakes to 400, backpressure and latency-budget shedding to 429
// (with Retry-After), draining to 503, timeouts to 504, everything
// else to 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverBudget):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrWarming):
		// Warm restart is about to finish; the state the client wants is
		// seconds away, so tell it to retry rather than failing over.
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		code = http.StatusGatewayTimeout
	}
	if code >= 500 {
		s.met.Failures.Inc()
	}
	s.writeJSON(w, code, map[string]string{"error": err.Error()})
}

// compile-time link: the registry's products satisfy the classifier
// interface the batch path relies on.
var _ ptq.Classifier = (*ptq.QuantizedModel)(nil)
