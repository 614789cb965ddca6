// Package fleet owns the in-process fleet — quq-serve workers plus the
// quq-shard front on loopback, one request helper to talk to them, one
// teardown that joins every goroutine (Boot, Do, Close) — that
// `quq-serve -smoke`, `quq-shard -smoke` and the chaos gate all run on.
// On top of it sits the chaos invariant harness (Run): it splices a
// chaos.Transport between the proxy and the network, replays seeded
// fault scripts, and checks the failure-domain invariants the
// serve/shard stack promises:
//
//   - reply conservation: no request lost, none double-answered, even
//     while connections reset and the ring fails over;
//   - calibrate-exactly-once: a key's PRA calibration runs once
//     fleet-wide, surviving a first client that disconnects mid-build
//     and a transient failure that must evict-and-retry, never
//     double-build;
//   - 429-never-retried: backend backpressure reaches the client
//     verbatim (status and Retry-After) with exactly one backend
//     attempt — retrying a 429 amplifies the very overload it signals;
//   - bounded-remap: ejecting and readmitting a shard moves only the
//     arcs that shard owns, in both directions;
//   - bounded-drain: drain answers every admitted item — including
//     abandoned and panicked ones — inside its deadline;
//   - calibrate-at-most-R / replicas-identical: with replication on, a
//     key's calibration runs on at most its R placement owners and the
//     replicas answer byte-identically, so a failover never changes an
//     answer — including with one replica flipped to the integer weight
//     path (-int-path), where the replicas must stay interchangeable
//     for requantized outputs (identical argmax, logits byte-identical
//     on the 2^-16 grid);
//   - zero-lost-keys: killing one replica owner loses no calibrated
//     key — the surviving replica serves warm, no rebuilds;
//   - elastic-membership: admin join/drain/leave advance the epoch
//     monotonically and a drain copies the leaver's keys' snapshots to
//     their new owners before removal, with no build across it;
//   - latency-slo: a lone request on an idle worker starts at once,
//     under deliberate overload the batcher stacks what queues behind
//     its busy workers, admission control sheds impatient requests up
//     front (429, no queue slot) while every admitted request meets its
//     budget, and the shed counter surfaces in the merged /metrics view;
//   - warm-restart-zero-recalibration: a backend killed and restarted
//     against its snapshot directory serves every previously-calibrated
//     key warm — zero new calibration builds, identical digests, and a
//     retryable 503 (never a wrong answer) while the warm load is still
//     in flight;
//   - corruption-quarantined / antientropy-converges: a snapshot whose
//     bytes were flipped on disk is quarantined at restart (the backend
//     stays healthy, never serves the corrupt payload), and one
//     anti-entropy sweep re-pushes the surviving replica's snapshot so
//     the fleet converges back to R identical copies without a single
//     recalibration.
//
// Everything stochastic draws from the script seed via internal/rng and
// every sleep goes through chaos.Clock, so a run's invariant report is
// byte-identical across replays; `quq-shard -chaos` runs each script
// twice and fails on any byte difference.
package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"quq/internal/chaos"
	"quq/internal/serve"
	"quq/internal/shard"
)

// Options tunes a replay.
type Options struct {
	// WrapTransport, when set, wraps the front-end's outbound transport
	// above the chaos fault layer (front -> wrapper -> faults -> net).
	// The harness's own tests use it to reintroduce known bugs — a
	// transparently-429-retrying transport, say — and prove the
	// invariant checks catch them.
	WrapTransport func(http.RoundTripper) http.RoundTripper
}

// Run replays the full fault schedule for one seed and returns the
// invariant report. ctx bounds the whole replay — every request,
// health probe and drain inside the scenarios descends from it, so
// cancelling it aborts the run. A non-nil error means the harness
// itself could not run (ports, marshalling, ctx expiry); invariant
// violations are reported in the Report, not as errors.
func Run(ctx context.Context, seed uint64, opts Options) (*chaos.Report, error) {
	rep := chaos.NewReport("serve-shard-faults", seed)
	for _, sc := range []struct {
		name string
		run  func(context.Context, uint64, Options, *chaos.Report) error
	}{
		{"reset-failover", scenarioResetFailover},
		{"calibrate-once", scenarioCalibrateOnce},
		{"backpressure-storm", scenarioBackpressure},
		{"eject-readmit", scenarioBoundedRemap},
		{"drain", scenarioBoundedDrain},
		{"replica-divergence", scenarioReplicaDivergence},
		{"replica-failover", scenarioReplicaFailover},
		{"membership-elastic", scenarioMembershipElastic},
		{"overload-shed", scenarioOverloadShed},
		{"warm-restart", scenarioWarmRestart},
		{"corruption-repair", scenarioCorruptionRepair},
	} {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("chaos scenario %s: %w", sc.name, err)
		}
		if err := sc.run(ctx, seed, opts, rep); err != nil {
			return nil, fmt.Errorf("chaos scenario %s: %w", sc.name, err)
		}
	}
	return rep, nil
}

// Fleet is one booted in-process fleet: quq-serve workers on ephemeral
// loopback ports behind a quq-shard front whose outbound traffic passes
// through the fault transport and whose backoff sleeps go to a fake
// clock. It is the one owner of "stand a fleet up on loopback, talk to
// it, tear it down": the chaos scenarios, `quq-shard -smoke` and
// `quq-serve -smoke` all boot through it.
type Fleet struct {
	Backends []*Backend
	Front    *shard.Front
	Base     string // front-end base URL
	Faults   *chaos.Transport
	Clock    *chaos.Fake

	frontSrv *http.Server
	serving  sync.WaitGroup // joins every http.Server.Serve goroutine at Close
}

// Backend is one quq-serve worker of a Fleet.
type Backend struct {
	Srv  *serve.Server
	Host string // "127.0.0.1:port" — the form chaos rules match on

	httpSrv *http.Server
	cfg     serve.Config // the exact config the backend booted with, kept for crash-restart
}

// URL is the worker's own base URL, for requests that bypass the front.
func (b *Backend) URL() string { return "http://" + b.Host }

// Boot starts workers backends and the front-end. ctx roots the
// front-end's background work (the prober) and bounds the listens.
// replicas is the fleet's replication factor R. script seeds the fault
// transport and the front's backoff jitter (rules may be empty; callers
// add host-targeted rules after boot, once ephemeral addresses exist).
// Probe rounds are explicit via Front.ProbeNow.
func Boot(ctx context.Context, workers, replicas int, cfg serve.Config, script *chaos.Script, opts Options) (*Fleet, error) {
	f := &Fleet{Clock: chaos.NewFake()}
	sopts := shard.Options{
		BaseContext:   ctx,
		Replicas:      replicas,
		ProbeInterval: -1,
		Seed:          script.Seed,
		Clock:         f.Clock,
	}
	for i := 0; i < workers; i++ {
		bcfg := cfg
		if root := cfg.Registry.SnapshotDir; root != "" {
			// The caller hands Boot one SnapshotDir as a fleet-wide root;
			// each backend persists into its own subdirectory, the way real
			// shards own disjoint disks.
			bcfg.Registry.SnapshotDir = filepath.Join(root, fmt.Sprintf("shard-%d", i))
		}
		b, err := f.StartBackend(ctx, bcfg)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("starting backend %d: %w", i, err)
		}
		sopts.Backends = append(sopts.Backends, b.Host)
	}
	f.Faults = chaos.NewTransport(nil, f.Clock, script)
	var rt http.RoundTripper = f.Faults
	if opts.WrapTransport != nil {
		rt = opts.WrapTransport(rt)
	}
	sopts.Transport = rt
	f.Front = shard.New(sopts)
	srv, host, err := f.listenAndServe(ctx, "127.0.0.1:0", f.Front.Handler())
	if err != nil {
		f.Close()
		return nil, err
	}
	f.frontSrv = srv
	f.Base = "http://" + host
	return f, nil
}

// bindAttempts bounds listenAndServe's retries (10ms apart on the fake
// clock).
const bindAttempts = 50

// listenAndServe binds addr and serves h on it until the returned server
// is closed; the Serve goroutine joins f.serving. Rebinding a port that
// just closed (RestartBackend) can transiently fail, so the listen is
// retried through the fake clock.
func (f *Fleet) listenAndServe(ctx context.Context, addr string, h http.Handler) (*http.Server, string, error) {
	for attempt := 0; ; attempt++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			srv := &http.Server{Handler: h}
			f.serving.Add(1)
			go func() {
				// Serve exits with ErrServerClosed on Close, which Close()
				// waits for; verdicts come from the round trips, not this
				// goroutine.
				defer f.serving.Done()
				_ = srv.Serve(ln)
			}()
			return srv, ln.Addr().String(), nil
		}
		if attempt == bindAttempts-1 {
			return nil, "", fmt.Errorf("binding %s: %w", addr, err)
		}
		if serr := f.Clock.Sleep(ctx, 10*time.Millisecond); serr != nil {
			return nil, "", serr
		}
	}
}

// StartBackend adds one quq-serve worker on an ephemeral loopback port.
// It is not on the front's ring until something joins it (Boot does, for
// the initial set; /admin/join later). A config that names no governor
// clock gets the fleet's, so the worker's service-time estimate reads
// the fleet's fake time, not the wall. A registry that names none gets a
// fake of its own: its statistics grace must cost no wall time — Close
// does not drain the workers, so a release timer on the real clock
// would outlive the fleet — and must not move the fleet's time either,
// which the governor and the scenarios' schedules read.
func (f *Fleet) StartBackend(ctx context.Context, cfg serve.Config) (*Backend, error) {
	if cfg.Governor.Clock == nil {
		cfg.Governor.Clock = f.Clock
	}
	if cfg.Registry.Clock == nil {
		cfg.Registry.Clock = chaos.NewFake()
	}
	s := serve.New(cfg)
	// A worker with a snapshot dir answers 503 until its warm load has
	// run. On a first boot that is one look at an empty directory, but on
	// its own goroutine, which a loaded machine may not have scheduled by
	// the time the caller's first request lands.
	for s.Registry().Warming() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runtime.Gosched()
	}
	httpSrv, host, err := f.listenAndServe(ctx, "127.0.0.1:0", s.Handler())
	if err != nil {
		return nil, err
	}
	b := &Backend{Srv: s, Host: host, httpSrv: httpSrv, cfg: cfg}
	f.Backends = append(f.Backends, b)
	return b, nil
}

// CrashBackend kills backend b abruptly: the listener closes and every
// in-flight connection drops, with no drain — the process-kill fault.
// The registry's state survives only through whatever it persisted to
// its snapshot directory.
func (f *Fleet) CrashBackend(b *Backend) {
	_ = b.httpSrv.Close()
}

// RestartBackend brings a crashed backend back on the SAME address with
// a fresh serve.Server built from the config it originally booted with
// — same snapshot directory, so the new registry warm-restarts from
// disk.
func (f *Fleet) RestartBackend(ctx context.Context, b *Backend) error {
	s := serve.New(b.cfg)
	httpSrv, _, err := f.listenAndServe(ctx, b.Host, s.Handler())
	if err != nil {
		return err
	}
	b.Srv, b.httpSrv = s, httpSrv
	return nil
}

// BackendAt maps a ring owner address (or bare host) back to the fleet's
// Backend.
func (f *Fleet) BackendAt(addr string) (*Backend, error) {
	host := hostOf(addr)
	for _, b := range f.Backends {
		if b.Host == host {
			return b, nil
		}
	}
	return nil, fmt.Errorf("no fleet backend with host %s", host)
}

// Close tears the fleet down and joins every Serve goroutine, so a
// caller returns with zero fleet goroutines left behind.
func (f *Fleet) Close() {
	if f.frontSrv != nil {
		_ = f.frontSrv.Close()
	}
	if f.Front != nil {
		f.Front.Close()
	}
	for _, b := range f.Backends {
		_ = b.httpSrv.Close()
	}
	f.serving.Wait()
}

// baseConfig is the cheap backend configuration every scenario starts
// from: ViT-Nano with a 2-image calibration set, so a "calibration" is
// real work (PRA reservoirs, grid refinement) but takes milliseconds.
func baseConfig(seed uint64) serve.Config {
	return serve.Config{
		Registry: serve.RegistryOptions{Seed: seed, CalibImages: 2},
	}
}

// hostOf strips the scheme from a backend URL, yielding the host form
// chaos rules and fleet bookkeeping use.
func hostOf(addr string) string {
	return strings.TrimPrefix(strings.TrimPrefix(addr, "http://"), "https://")
}

// completions counts fault-transport events on path that carried the
// given status — the backend-side completion ledger conservation checks
// compare against the client-side one.
func completions(tr *chaos.Transport, path string, status int) int {
	n := 0
	for _, e := range tr.Events() {
		if strings.HasPrefix(e.Path, path) && e.Status == status {
			n++
		}
	}
	return n
}
