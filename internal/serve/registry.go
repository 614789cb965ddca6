package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quq/internal/baselines"
	"quq/internal/chaos"
	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/snapstore"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// Key identifies one quantized-model registry entry: everything that
// determines the calibration artifact.
type Key struct {
	Config string     // model name from the zoo ("ViT-S", ..., "ViT-Nano")
	Method string     // quantization method name ("QUQ", "BaseQ", ...)
	Bits   int        // uniform weight/activation bit-width
	Regime ptq.Regime // partial (GEMM-only) or full quantization
}

// String renders the key the way /models and logs display it.
func (k Key) String() string {
	return fmt.Sprintf("%s/%s/w%da%d/%s", k.Config, k.Method, k.Bits, k.Bits, k.Regime)
}

// ParseRegime maps the wire names onto ptq regimes. The empty string
// defaults to partial — the paper's headline (Table 2) setting.
func ParseRegime(s string) (ptq.Regime, error) {
	switch strings.ToLower(s) {
	case "", "partial":
		return ptq.Partial, nil
	case "full":
		return ptq.Full, nil
	}
	return 0, fmt.Errorf("%w: regime %q (want \"partial\" or \"full\")", ErrBadRequest, s)
}

// Method construction is by name so the registry key stays a value type.
// The table lists every ptq.Method in the repo; order is the menu order
// /models advertises.
var methodNames = []string{"QUQ", "BaseQ", "PTQ4ViT", "APQ-ViT", "FQ-ViT", "BiScaled-FxP"}

// canonicalNames maps the lower-cased spelling of every method and model
// name to its canonical form. Key canonicalization is load-bearing for
// sharding: quq-shard hashes the canonical key string onto the ring, so
// "Quq" and "quq" must resolve to one spelling (and one shard) before
// hashing, not after.
var canonicalNames = sync.OnceValue(func() map[string]string {
	m := make(map[string]string)
	for _, name := range methodNames {
		m[strings.ToLower(name)] = name
	}
	for _, cfg := range append(append([]vit.Config(nil), vit.ZooConfigs...), vit.ViTNano) {
		m[strings.ToLower(cfg.Name)] = cfg.Name
	}
	return m
})

// CanonicalMethod resolves a wire method name, case-insensitively, to
// its canonical registry spelling; the empty string defaults to QUQ.
func CanonicalMethod(name string) (string, bool) {
	if name == "" {
		return "QUQ", true
	}
	canon, ok := canonicalNames()[strings.ToLower(name)]
	return canon, ok && isMethod(canon)
}

// CanonicalConfig resolves a wire model name, case-insensitively, to its
// canonical zoo spelling; the empty string defaults to ViT-Nano.
func CanonicalConfig(name string) (string, bool) {
	if name == "" {
		return vit.ViTNano.Name, true
	}
	canon, ok := canonicalNames()[strings.ToLower(name)]
	return canon, ok && !isMethod(canon)
}

func isMethod(canon string) bool {
	for _, name := range methodNames {
		if name == canon {
			return true
		}
	}
	return false
}

// Key bit-width protocol bounds (ptq enforces the lower one too).
// CanonicalKey applies both, so a front-end rejects garbage before
// hashing and no out-of-range key ever reaches a build slot.
const (
	MinBits = 3
	MaxBits = 16
)

// CanonicalKey fills a key's defaults (ViT-Nano, QUQ, 6 bits) and
// normalizes model/method spelling, rejecting unknown enum values and
// out-of-protocol bit-widths. Every key is canonicalized before it is
// hashed (quq-shard) or used as a cache key (Registry.Get), so the two
// can never disagree on identity.
func CanonicalKey(k Key) (Key, error) {
	cfg, ok := CanonicalConfig(k.Config)
	if !ok {
		return Key{}, fmt.Errorf("%w %q", ErrUnknownModel, k.Config)
	}
	k.Config = cfg
	method, ok := CanonicalMethod(k.Method)
	if !ok {
		return Key{}, fmt.Errorf("%w %q", ErrUnknownMethod, k.Method)
	}
	k.Method = method
	if k.Bits == 0 {
		k.Bits = 6
	}
	if k.Bits < MinBits || k.Bits > MaxBits {
		return Key{}, fmt.Errorf("%w: bits %d out of range [%d, %d]", ErrBadRequest, k.Bits, MinBits, MaxBits)
	}
	if k.Regime != ptq.Partial && k.Regime != ptq.Full {
		return Key{}, fmt.Errorf("%w: unknown regime", ErrBadRequest)
	}
	return k, nil
}

// KeyFromWire canonicalizes the wire form of a key selection — the
// (model, method, bits, regime) fields of a classify/quantize body —
// shared by the serving layer and the quq-shard front-end.
func KeyFromWire(model, method string, bits int, regime string) (Key, error) {
	rg, err := ParseRegime(regime)
	if err != nil {
		return Key{}, err
	}
	return CanonicalKey(Key{Config: model, Method: method, Bits: bits, Regime: rg})
}

// ParseKey inverts Key.String: "Config/Method/wNaN/regime" back into a
// canonical key. It accepts exactly the strings Key.String prints — no
// other spelling, no defaulted field, no trailing bytes — because its
// inputs come from outside the process: the ?key= of GET /v1/snapshot,
// snapshot files, and a leaving backend's /models, which the drain
// handoff in quq-shard turns back into quantize requests for the new
// owners.
func ParseKey(s string) (Key, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 4 {
		return Key{}, fmt.Errorf("%w: key %q is not Config/Method/wNaN/regime", ErrBadRequest, s)
	}
	var wb, ab int
	if _, err := fmt.Sscanf(parts[2], "w%da%d", &wb, &ab); err != nil || wb != ab {
		return Key{}, fmt.Errorf("%w: key %q has malformed bit-width %q", ErrBadRequest, s, parts[2])
	}
	k, err := KeyFromWire(parts[0], parts[1], wb, parts[3])
	if err != nil {
		return Key{}, err
	}
	if k.String() != s {
		return Key{}, fmt.Errorf("%w: key %q is not canonical (want %q)", ErrBadRequest, s, k)
	}
	return k, nil
}

func newMethod(name string) (ptq.Method, bool) {
	switch name {
	case "", "QUQ":
		return ptq.NewQUQ(), true
	case "BaseQ":
		return baselines.BaseQ{}, true
	case "PTQ4ViT":
		return baselines.PTQ4ViT{}, true
	case "APQ-ViT":
		return baselines.APQViT{}, true
	case "FQ-ViT":
		return baselines.FQViT{}, true
	case "BiScaled-FxP":
		return baselines.BiScaled{}, true
	}
	return nil, false
}

// MethodNames lists the quantization methods the registry can build.
func MethodNames() []string { return append([]string(nil), methodNames...) }

// Registry errors. ErrBadRequest wraps every client-side validation
// failure so the HTTP layer can map the whole family to 400.
var (
	ErrBadRequest    = errors.New("serve: bad request")
	ErrUnknownModel  = fmt.Errorf("%w: unknown model", ErrBadRequest)
	ErrUnknownMethod = fmt.Errorf("%w: unknown method", ErrBadRequest)
)

// ErrWarming is returned by lookups while the warm-restart pass is still
// installing snapshot entries: the state the client wants may be seconds
// from ready, so the HTTP layer maps this to a retryable 503 instead of
// starting a redundant calibration (or serving a stale miss).
var ErrWarming = errors.New("serve: warm restart in progress, retry shortly")

// RegistryOptions configures model construction.
type RegistryOptions struct {
	// Seed drives synthetic weights and calibration images (default 2024,
	// the experiments' seed).
	Seed uint64
	// CalibImages per model (default 32, the paper's protocol).
	CalibImages int
	// MaxSamplesPerSite caps calibration reservoirs (0 = ptq default).
	MaxSamplesPerSite int
	// Checkpoint optionally points at a trained ViT-Nano checkpoint
	// (artifacts/vit-nano.ckpt); when set, the ViT-Nano base model is
	// loaded from it instead of using synthetic weights.
	Checkpoint string
	// BuildHook, when set, runs at the start of every calibration build
	// with the entry's key. It is the chaos layer's calibration seam: a
	// hook that sleeps simulates slow calibration, a hook that returns
	// an error simulates a failing one (the entry is then evicted so a
	// later request can retry). Not for production use.
	BuildHook func(key Key) error
	// SnapshotDir, when set, makes calibration durable: every successful
	// build is committed there as a content-addressed snapshot file
	// (write-temp, fsync, rename) and the registry warm-restarts from the
	// directory on construction — previously-calibrated keys come back
	// ready with zero recalibration. Files whose digest or payload fails
	// verification are quarantined (renamed aside), never served and
	// never fatal. Empty disables persistence.
	SnapshotDir string
	// SnapshotLoadHook, when set, runs on the warm-restart goroutine
	// after the snapshot directory has been read, with the number of
	// verified snapshots about to be installed; a directory that held no
	// snapshot file at construction starts no warm restart and no hook.
	// It is the chaos layer's restart seam: a hook that blocks holds the
	// registry in its warming state (requests answer 503) for as long as
	// the scenario needs. Not for production use.
	SnapshotLoadHook func(n int)
	// IntPath enables the fully-integer weight path (-int-path flag) on
	// every QUQ-method model the registry builds: weight GEMMs run on
	// resident pre-shifted int64 operands through the tensor kernel
	// layer instead of rehydrating float64 weights. Models quantized
	// with other methods are unaffected — the path needs recorded QUQ
	// weight params. Logits agree with the float path on the 2^-16
	// requantized grid, with the same argmax, so float and integer
	// backends are interchangeable in one fleet; raw logits may differ
	// by about an ulp. The setting can be changed at runtime with
	// Registry.SetIntPath.
	IntPath bool
	// Clock times the idle grace after which a config's calibration
	// statistics are released (calib.go). Defaults to chaos.Real; tests
	// and the chaos harness substitute a fake so the grace costs no wall
	// time and replays stay byte-identical.
	Clock chaos.Clock
}

func (o *RegistryOptions) defaults() {
	if o.Seed == 0 {
		o.Seed = 2024
	}
	if o.CalibImages == 0 {
		o.CalibImages = 32
	}
	if o.Clock == nil {
		o.Clock = chaos.Real
	}
}

// entry is one singleflight build slot: the first Get for a key creates
// it, builds synchronously, then closes ready; concurrent callers wait.
type entry struct {
	key     Key
	ready   chan struct{}
	qm      *ptq.QuantizedModel
	err     error
	buildMS float64
	digest  string       // hex content address of the entry's snapshot; "" if not snapshottable
	replica atomic.Int32 // replica index stamped by the front-end; -1 until known
	// intDeclines is how much of qm.IntDeclines() noteIntDeclines has
	// already counted; guarded by Registry.mu.
	intDeclines int64
}

// baseEntry is the per-config singleflight slot for the FP32 base model
// and its calibration set, shared by every method/bits/regime entry of
// that config. It also owns the config's calibration statistics — the
// root of the calibration DAG — for as long as builds need them
// (calib.go).
type baseEntry struct {
	ready chan struct{}
	model vit.Model
	calib []*tensor.Tensor
	err   error

	// Guarded by Registry.mu. pins counts the builds in flight that may
	// still read the statistics; stats is the set resident or being
	// collected (nil otherwise); idle is bumped by every pin, so a release
	// timer armed before it can tell it is stale.
	pins  int
	stats *statsSlot
	idle  uint64
}

// Registry lazily builds and caches quantized models. All methods are
// safe for concurrent use.
type Registry struct {
	opts    RegistryOptions
	met     *Metrics
	configs map[string]vit.Config
	names   []string // sorted config names

	mu       sync.Mutex
	bases    map[string]*baseEntry
	families map[familyKey]*family
	entries  map[Key]*entry
	builds   sync.WaitGroup // joins detached build and statistics-release goroutines in Drain

	// stop is cancelled by Drain: a statistics release waiting out its
	// grace releases at once instead.
	stop     context.Context
	stopNow  context.CancelFunc
	nodeRuns [numNodes]atomic.Int64 // calibration node builds by kind; the count tests' view

	// store is the durable snapshot store (nil when SnapshotDir is
	// empty); warm closes once the warm-restart pass has finished
	// installing on-disk entries — requests arriving earlier are told to
	// retry (503) rather than being served a stale miss.
	store *snapstore.Store
	warm  chan struct{}

	// intPath is the live value of RegistryOptions.IntPath; reads happen
	// at build completion, writes through SetIntPath.
	intPath atomic.Bool
}

// NewRegistry builds a registry over the proxy zoo plus ViT-Nano.
// met may be nil (no instrumentation).
func NewRegistry(opts RegistryOptions, met *Metrics) *Registry {
	opts.defaults()
	r := &Registry{
		opts:     opts,
		met:      met,
		configs:  make(map[string]vit.Config),
		bases:    make(map[string]*baseEntry),
		families: make(map[familyKey]*family),
		entries:  make(map[Key]*entry),
	}
	//quq:ctx-ok the registry owns its release timers' lifetime; Drain is what cancels them
	r.stop, r.stopNow = context.WithCancel(context.Background())
	for _, cfg := range append(append([]vit.Config(nil), vit.ZooConfigs...), vit.ViTNano) {
		r.configs[cfg.Name] = cfg
		r.names = append(r.names, cfg.Name)
	}
	sort.Strings(r.names)
	r.intPath.Store(opts.IntPath)
	r.warm = make(chan struct{})
	if opts.SnapshotDir == "" {
		close(r.warm)
		return r
	}
	store, _, err := snapstore.Open(opts.SnapshotDir)
	if err != nil {
		// A broken snapshot dir costs durability, never serving: run
		// memory-only and surface the failure in metrics.
		if met != nil {
			met.SnapshotErrors.Inc()
		}
		close(r.warm)
		return r
	}
	r.store = store
	if store.Committed() == 0 {
		// Nothing to restore: open for traffic now. A warm-restart
		// goroutine scheduled late would answer the first requests of a
		// fresh worker with 503s.
		close(r.warm)
		return r
	}
	r.builds.Add(1)
	go r.warmRestart()
	return r
}

// Warming reports whether the warm-restart pass is still installing
// snapshot entries. While true, lookups return ErrWarming so clients
// retry instead of triggering recalibration of keys that are about to
// come back from disk.
func (r *Registry) Warming() bool {
	select {
	case <-r.warm:
		return false
	default:
		return true
	}
}

// Config returns the zoo configuration for a model name.
func (r *Registry) Config(name string) (vit.Config, bool) {
	cfg, ok := r.configs[name]
	return cfg, ok
}

// ConfigNames lists the servable models in sorted order.
func (r *Registry) ConfigNames() []string { return append([]string(nil), r.names...) }

// Get returns the quantized model for key, building it on first use.
// The key is canonicalized first, so two spellings of one selection can
// never occupy two build slots. The first Get for a key starts the
// build on a detached goroutine and every caller — the first included —
// waits for it with its own context, so a client that disconnects
// mid-calibration abandons only its wait: the build always runs to
// completion and its result is cached for every future request (the
// calibrate-once contract holds even when the triggering client is
// gone). A build that fails is evicted after its waiters are notified,
// so a transient calibration failure does not poison the key forever.
// The boolean reports whether the model was already cached.
func (r *Registry) Get(ctx context.Context, key Key) (*ptq.QuantizedModel, bool, error) {
	key, err := CanonicalKey(key)
	if err != nil {
		return nil, false, err
	}
	if r.Warming() {
		return nil, false, ErrWarming
	}
	r.mu.Lock()
	e, cached := r.entries[key]
	if !cached {
		e = &entry{key: key, ready: make(chan struct{})}
		e.replica.Store(-1)
		r.entries[key] = e
		r.builds.Add(1)
		go r.buildEntry(e)
	}
	r.mu.Unlock()

	if r.met != nil {
		if cached {
			r.met.CacheHits.Inc()
		} else {
			r.met.CacheMisses.Inc()
		}
	}
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, cached, ctx.Err()
	}
	return e.qm, cached, e.err
}

// buildEntry performs one singleflight build on its own goroutine,
// publishes the result, and evicts the entry on failure so the next
// request retries instead of inheriting a stale error.
func (r *Registry) buildEntry(e *entry) {
	defer r.builds.Done()
	start := time.Now()
	e.qm, e.err = r.build(e.key)
	e.buildMS = float64(time.Since(start)) / float64(time.Millisecond)
	if r.met != nil {
		r.met.BuildSeconds.Observe(time.Since(start).Seconds())
	}
	if e.err != nil {
		r.mu.Lock()
		// Only evict our own slot: a concurrent retry may already have
		// replaced it.
		if r.entries[e.key] == e {
			delete(r.entries, e.key)
		}
		r.mu.Unlock()
	} else {
		// Commit the build to the snapshot store (and stamp the entry's
		// digest) before publishing: a waiter that sees ready also sees
		// the digest.
		r.persist(e)
	}
	close(e.ready)
}

// NoteReplica records which replica slot this process holds for a key,
// as stamped by the replicating front-end (the X-Quq-Replica request
// header). The index is advisory observability — it never enters the
// cache key, so replica 0 and replica 1 of one selection are still one
// entry per process — and only the first non-negative note sticks: a
// key's replica position on a given backend is fixed until the ring
// moves it, at which point the entry itself is what gets rebuilt.
func (r *Registry) NoteReplica(key Key, replica int) {
	if replica < 0 {
		return
	}
	key, err := CanonicalKey(key)
	if err != nil {
		return
	}
	r.mu.Lock()
	e := r.entries[key]
	r.mu.Unlock()
	if e != nil {
		e.replica.CompareAndSwap(-1, int32(replica))
	}
}

// Drain waits until every detached build goroutine has finished or ctx
// expires. Builds are detached from their triggering client by design
// (the calibrate-once contract), so graceful shutdown must join them
// here — otherwise a calibration in flight at exit is silently killed
// mid-write with its entry published to nobody. Calibration statistics
// idling out their grace are released at once, and from then on as soon
// as the last build needing them finishes.
func (r *Registry) Drain(ctx context.Context) error {
	r.stopNow()
	done := make(chan struct{})
	go func() {
		r.builds.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// build constructs the quantized model for a validated key: the key's
// own work is the BuildHook, the assembly and the integer engine;
// everything calibrated comes from the family's shared nodes (calib.go),
// built here if this key is the first to need them and waited for if a
// sibling already is.
func (r *Registry) build(key Key) (*ptq.QuantizedModel, error) {
	if r.opts.BuildHook != nil {
		if err := r.opts.BuildHook(key); err != nil {
			return nil, fmt.Errorf("serve: calibration for %s failed: %w", key, err)
		}
	}
	be := r.base(key.Config)
	if be.err != nil {
		return nil, be.err
	}
	qm := r.calibrate(be, key)
	if r.intPath.Load() && qm.WeightParams != nil {
		if err := qm.SetIntPath(true); err != nil {
			return nil, fmt.Errorf("serve: int path for %s: %w", key, err)
		}
	}
	return qm, nil
}

// SetIntPath toggles the integer weight path at runtime: future builds
// adopt the setting, and every cached model that supports the path
// (recorded QUQ weight params) is toggled in place — safe under live
// traffic, since the engine pointer is atomic per model. It returns the
// number of cached models toggled. A build racing the toggle may finish
// with the previous setting; re-issuing the call converges it.
func (r *Registry) SetIntPath(on bool) (int, error) {
	r.intPath.Store(on)
	r.mu.Lock()
	list := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		list = append(list, e)
	}
	r.mu.Unlock()
	toggled := 0
	for _, e := range list {
		select {
		case <-e.ready:
		default:
			continue // still building; adopts the stored setting on completion
		}
		if e.qm == nil || e.qm.WeightParams == nil {
			continue
		}
		if err := e.qm.SetIntPath(on); err != nil {
			return toggled, fmt.Errorf("serve: int path for %s: %w", e.key, err)
		}
		toggled++
	}
	return toggled, nil
}

// noteIntDeclines brings quq_serve_int_declines_total up to what the
// resident models' integer engines have declined. The models count (the
// forward cannot reach a metric); a scrape collects.
func (r *Registry) noteIntDeclines() {
	if r.met == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		select {
		case <-e.ready:
		default:
			continue
		}
		if e.qm == nil {
			continue
		}
		if n := e.qm.IntDeclines(); n > e.intDeclines {
			r.met.IntDeclines.Add(uint64(n - e.intDeclines))
			e.intDeclines = n
		}
	}
}

// base returns the config's base slot — FP32 model and calibration set,
// or the error loading them — building it once (its own singleflight:
// two different method keys on the same config must not duplicate the
// work or diverge on seeds).
func (r *Registry) base(name string) *baseEntry {
	r.mu.Lock()
	be, ok := r.bases[name]
	if !ok {
		be = &baseEntry{ready: make(chan struct{})}
		r.bases[name] = be
	}
	r.mu.Unlock()
	if ok {
		<-be.ready
		return be
	}

	cfg := r.configs[name]
	seed := r.baseSeed(name)
	if name == vit.ViTNano.Name && r.opts.Checkpoint != "" {
		be.model, be.err = vit.LoadFile(cfg, r.opts.Checkpoint)
	} else {
		be.model = vit.New(cfg, seed)
	}
	if be.err == nil {
		be.calib = data.CalibrationSet(cfg, r.opts.CalibImages, seed)
	}
	close(be.ready)
	return be
}

// baseSeed derives the per-config seed with the experiments' convention
// (BuildZoo offsets the shared seed by 1000 per zoo position); ViT-Nano
// sits after the zoo.
func (r *Registry) baseSeed(name string) uint64 {
	for i, cfg := range vit.ZooConfigs {
		if cfg.Name == name {
			return r.opts.Seed + uint64(i)*1000
		}
	}
	return r.opts.Seed + uint64(len(vit.ZooConfigs))*1000
}

// EntryInfo is the /models view of one registry entry. Replica is the
// replica slot the front-end stamped on requests for this key (-1 for
// direct, unreplicated traffic).
type EntryInfo struct {
	Key     string  `json:"key"`
	Ready   bool    `json:"ready"`
	Error   string  `json:"error,omitempty"`
	BuildMS float64 `json:"build_ms,omitempty"`
	Replica int     `json:"replica"`
	// Digest is the hex SHA-256 content address of the entry's snapshot
	// payload — identical across replicas exactly when their calibrated
	// state is byte-identical, which is what the anti-entropy sweeper
	// compares. Empty for entries that are not snapshottable.
	Digest string `json:"digest,omitempty"`
}

// Entries snapshots the registry in deterministic (key-string) order.
func (r *Registry) Entries() []EntryInfo {
	r.mu.Lock()
	list := make([]*entry, 0, len(r.entries))
	// Map order is irrelevant here: the snapshot is sorted below.
	for _, e := range r.entries {
		list = append(list, e)
	}
	r.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].key.String() < list[j].key.String() })
	out := make([]EntryInfo, 0, len(list))
	for _, e := range list {
		info := EntryInfo{Key: e.key.String(), Replica: int(e.replica.Load())}
		select {
		case <-e.ready:
			info.Ready = e.err == nil
			info.BuildMS = e.buildMS
			info.Digest = e.digest
			if e.err != nil {
				info.Error = e.err.Error()
			}
		default:
		}
		out = append(out, info)
	}
	return out
}
