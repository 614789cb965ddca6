package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"quq/internal/chaos"
	"quq/internal/data"
	"quq/internal/snapstore"
	"quq/internal/vit"
)

// waitReady polls one backend's /models through the fake clock until
// key is resident and ready, returning its digest. The warm load or
// repair it waits on does real work while the fake-clock sleeps cost
// nothing, so the wait is bounded by real elapsed time, not by a poll
// count a loaded machine can run through first.
func (f *Fleet) waitReady(ctx context.Context, b *Backend, key string) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for {
		if r, err := Do(ctx, http.MethodGet, b.URL()+"/models", nil, nil); err == nil {
			if entries, err := r.Models(); err == nil {
				if e, ok := entries[key]; ok && e.Ready {
					return e.Digest, nil
				}
			}
		}
		if err := f.Clock.Sleep(ctx, 5*time.Millisecond); err != nil {
			return "", fmt.Errorf("key %s never became ready on %s: %w", key, b.Host, err)
		}
	}
}

// scenarioWarmRestart is the crash-restart fault: calibrate a key,
// kill its owning backend mid-fleet, restart it pointed at the same
// snapshot directory, and check warm-restart-zero-recalibration — the
// restored process answers every read warm (zero new calibration
// builds, digest unchanged) and, while the snapshot load is still in
// flight, classify returns a retryable 503 rather than a wrong answer
// or an rebuild. A SnapshotLoadHook gate holds the warm load open so
// the 503 window is observed deterministically, not raced.
func scenarioWarmRestart(ctx context.Context, seed uint64, opts Options, rep *chaos.Report) error {
	root, err := os.MkdirTemp("", "quq-chaos-warm-")
	if err != nil {
		return err
	}
	defer func() {
		//quq:errdrop-ok best-effort temp-dir cleanup after the verdict is recorded
		_ = os.RemoveAll(root)
	}()

	cfg, snapshot := buildCounter(seed)
	cfg.Registry.SnapshotDir = root
	var restored atomic.Int32
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	cfg.Registry.SnapshotLoadHook = func(n int) {
		// First boots see an empty store and start no warm restart; the
		// restart (n > 0) parks here until the scenario has observed the
		// warming window.
		if n > 0 {
			restored.Store(int32(n))
			<-gate
		}
	}

	f, err := Boot(ctx, 3, 1, cfg, &chaos.Script{Name: "warm-restart", Seed: seed}, opts)
	if err != nil {
		return err
	}
	defer f.Close()

	sel := Selection{Model: "ViT-Nano", Method: "BaseQ", Bits: 6}
	key, err := sel.Key()
	if err != nil {
		return err
	}
	if r, err := post(ctx, f.Base+"/v1/quantize", sel); err != nil || r.Status != http.StatusOK {
		return fmt.Errorf("warm quantize: %v (status %d)", err, r.Status)
	}
	builds0 := snapshot()[key]

	owners := f.Front.Ring().OwnerN(key, 1)
	if len(owners) != 1 {
		return fmt.Errorf("OwnerN returned %d owners, want 1", len(owners))
	}
	victim, err := f.BackendAt(owners[0].Addr())
	if err != nil {
		return err
	}
	digestBefore, err := f.waitReady(ctx, victim, key)
	if err != nil {
		return err
	}

	f.CrashBackend(victim)
	if err := f.RestartBackend(ctx, victim); err != nil {
		return err
	}

	// The warm load is parked on the gate, so this classify lands inside
	// the warming window by construction: it must be a 503, never a 404
	// (which would push the client to recalibrate elsewhere) and never a
	// 200 from a half-loaded registry.
	img := data.Images(vit.ViTNano, 1, seed)[0].Data()
	probe, err := post(ctx, victim.URL()+"/v1/classify", ClassifyBody(sel, img))
	if err != nil {
		return fmt.Errorf("warming probe: %w", err)
	}
	warming503 := probe.Status == http.StatusServiceUnavailable
	release()

	digestAfter, err := f.waitReady(ctx, victim, key)
	if err != nil {
		return err
	}
	const reads = 6
	readsOK := 0
	for i := 0; i < reads; i++ {
		r, err := post(ctx, f.Base+"/v1/classify", ClassifyBody(sel, img))
		if err != nil {
			return fmt.Errorf("warm read %d: %w", i, err)
		}
		if r.Status == http.StatusOK {
			readsOK++
		}
	}
	digestsStable := digestBefore != "" && digestBefore == digestAfter
	rep.CheckWarmRestart(int(restored.Load()), reads, readsOK, snapshot()[key]-builds0, warming503, digestsStable)
	return nil
}

// scenarioCorruptionRepair is the snapshot-corruption fault at R=2:
// flip bits in one replica's on-disk snapshot, restart that replica,
// and check corruption-quarantined (the damaged file is quarantined at
// load — the backend stays healthy and never serves the corrupt
// payload) followed by antientropy-converges (one sweep re-pushes the
// surviving replica's snapshot to the repaired owner, restoring R
// identical copies with zero new calibration builds).
func scenarioCorruptionRepair(ctx context.Context, seed uint64, opts Options, rep *chaos.Report) error {
	root, err := os.MkdirTemp("", "quq-chaos-corrupt-")
	if err != nil {
		return err
	}
	defer func() {
		//quq:errdrop-ok best-effort temp-dir cleanup after the verdict is recorded
		_ = os.RemoveAll(root)
	}()

	cfg, snapshot := buildCounter(seed)
	cfg.Registry.SnapshotDir = root
	f, err := Boot(ctx, 3, 2, cfg, &chaos.Script{Name: "corruption-repair", Seed: seed}, opts)
	if err != nil {
		return err
	}
	defer f.Close()

	sel := Selection{Model: "ViT-Nano", Method: "BaseQ", Bits: 5}
	key, err := sel.Key()
	if err != nil {
		return err
	}
	if r, err := post(ctx, f.Base+"/v1/quantize", sel); err != nil || r.Status != http.StatusOK {
		return fmt.Errorf("replicated warm: %v (status %d)", err, r.Status)
	}
	sumBuilds := func() int {
		total := 0
		for _, n := range snapshot() {
			total += n
		}
		return total
	}
	builds0 := sumBuilds()

	owners := f.Front.Ring().OwnerN(key, 2)
	if len(owners) != 2 {
		return fmt.Errorf("OwnerN returned %d owners, want 2", len(owners))
	}
	victim, err := f.BackendAt(owners[0].Addr())
	if err != nil {
		return err
	}
	survivor, err := f.BackendAt(owners[1].Addr())
	if err != nil {
		return err
	}
	if _, err := f.waitReady(ctx, victim, key); err != nil {
		return err
	}
	healthyDigest, err := f.waitReady(ctx, survivor, key)
	if err != nil {
		return err
	}

	f.CrashBackend(victim)
	victimDir := victim.cfg.Registry.SnapshotDir
	if err := chaos.CorruptFile(snapstore.PathFor(victimDir, key), seed, 3); err != nil {
		return err
	}
	if err := f.RestartBackend(ctx, victim); err != nil {
		return err
	}

	// Wait out the warm load: GET /v1/snapshot answers 503 while loading,
	// then 404 once the corrupt file has been quarantined instead of
	// installed. A 200 here would mean the registry served a payload
	// whose digest check should have failed.
	snapURL := victim.URL() + "/v1/snapshot?key=" + url.QueryEscape(key)
	var snap Reply
	for i := 0; i < 400; i++ {
		snap, err = Do(ctx, http.MethodGet, snapURL, nil, nil)
		if err == nil && snap.Status != http.StatusServiceUnavailable {
			break
		}
		if serr := f.Clock.Sleep(ctx, 5*time.Millisecond); serr != nil {
			return serr
		}
	}
	servedCorrupt := 0
	if snap.Status == http.StatusOK {
		servedCorrupt = 1
	}
	quarantined, err := filepath.Glob(filepath.Join(victimDir, "*.quarantined"))
	if err != nil {
		return err
	}
	hz, err := Do(ctx, http.MethodGet, victim.URL()+"/healthz", nil, nil)
	if err != nil {
		return err
	}
	rep.CheckCorruptionQuarantined(len(quarantined), hz.Status == http.StatusOK, servedCorrupt)

	stats := f.Front.SweepNow(ctx)
	repairedDigest, err := f.waitReady(ctx, victim, key)
	if err != nil {
		return err
	}
	second := f.Front.SweepNow(ctx)
	converged := repairedDigest != "" && repairedDigest == healthyDigest && second.Mismatches == 0
	rep.CheckAntiEntropyConverges(stats.Mismatches, stats.Repairs, stats.Failures, sumBuilds()-builds0, converged)
	return nil
}
