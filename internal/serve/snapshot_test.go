package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"quq/internal/ptq"
	"quq/internal/snapstore"
	"quq/internal/vit"
)

// mustGet returns key's model from r, building it if it is not resident.
func mustGet(t testing.TB, r *Registry, key Key) *ptq.QuantizedModel {
	t.Helper()
	qm, _, err := r.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	return qm
}

// snapshotsOf builds keys on a fresh registry over opts and returns
// their snapshot file images.
func snapshotsOf(t *testing.T, opts RegistryOptions, keys ...Key) [][]byte {
	t.Helper()
	r := NewRegistry(opts, nil)
	blobs := make([][]byte, len(keys))
	for i, k := range keys {
		mustGet(t, r, k)
		blob, _, err := r.Snapshot(k)
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = blob
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	return blobs
}

// awaitWarm waits out r's warm restart.
func awaitWarm(r *Registry) {
	for r.Warming() {
		time.Sleep(time.Millisecond)
	}
}

// nodeRunCounts reads every calibration node kind's build count.
func nodeRunCounts(r *Registry) (runs [numNodes]int64) {
	for i := range runs {
		runs[i] = r.nodeRuns[i].Load()
	}
	return runs
}

// TestInstallOntoBuiltSiblingSharesWeights: a drain copies both regimes
// of a family onto a worker that has built one of them. The copy builds
// nothing — no calibration node, no cache miss, no BuildHook call — and
// the installed Full entry serves from the Partial build's weight clone.
func TestInstallOntoBuiltSiblingSharesWeights(t *testing.T) {
	partial, full := nanoKey("QUQ", ptq.Partial), nanoKey("QUQ", ptq.Full)
	blobs := snapshotsOf(t, testRegistryOptions(), partial, full)

	var hooks atomic.Int64
	opts := testRegistryOptions()
	opts.BuildHook = func(Key) error {
		hooks.Add(1)
		return nil
	}
	met := NewMetrics()
	r := NewRegistry(opts, met)
	drainOnCleanup(t, r)
	mustGet(t, r, partial)
	runs, misses, calls := nodeRunCounts(r), met.CacheMisses.Value(), hooks.Load()

	for _, blob := range blobs {
		if _, _, err := r.InstallSnapshot(blob); err != nil {
			t.Fatal(err)
		}
	}
	if got := mustGet(t, r, full).Model; got != mustGet(t, r, partial).Model {
		t.Fatal("the installed Full entry holds a weight clone of its own")
	}
	if got := nodeRunCounts(r); got != runs {
		t.Errorf("calibration node runs %v after the installs, %v before", got, runs)
	}
	if got := met.CacheMisses.Value(); got != misses {
		t.Errorf("cache misses %d after the installs, %d before", got, misses)
	}
	if got := hooks.Load(); got != calls {
		t.Errorf("BuildHook ran %d times after the installs, %d before", got, calls)
	}
	for i, k := range []Key{partial, full} {
		if b, _, err := r.Snapshot(k); err != nil || !bytes.Equal(b, blobs[i]) {
			t.Fatalf("%v: Snapshot differs from the installed file (err %v)", k, err)
		}
	}
}

// TestBuildAfterWarmRestartSharesRestoredWeights: a warm restart that
// restores only a family's Partial key leaves its weights in the family,
// so building the Full sibling runs no weight pass, serves the restored
// clone, and still produces a standalone build's digest.
func TestBuildAfterWarmRestartSharesRestoredWeights(t *testing.T) {
	opts := testRegistryOptions()
	opts.SnapshotDir = t.TempDir()
	partial, full := nanoKey("QUQ", ptq.Partial), nanoKey("QUQ", ptq.Full)
	r := NewRegistry(opts, nil)
	mustGet(t, r, partial)
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	r = NewRegistry(opts, nil)
	drainOnCleanup(t, r)
	awaitWarm(r)
	qp, cached, err := r.Get(context.Background(), partial)
	if err != nil || !cached {
		t.Fatalf("%v after the restart: cached %v, err %v", partial, cached, err)
	}
	qf := mustGet(t, r, full)
	if got := r.nodeRuns[weightsNode].Load(); got != 0 {
		t.Errorf("%d weight passes building %v beside its restored sibling, want 0", got, full)
	}
	if qf.Model != qp.Model {
		t.Error("the Full build holds a weight clone of its own")
	}
	if got, want := r.Digest(full), standaloneDigest(t, r, full); got != want {
		t.Fatalf("%v digest %s, standalone %s", full, got, want)
	}
}

// TestHostileInstallSparesHeldBuild: a snapshot whose SHA-256 is valid
// but whose checkpoint LoadCheckpoint rejects, installed while a
// sibling's build is held at its BuildHook, answers 400 and leaves the
// family's weights to that build, which finishes with the standalone
// digest; a well-formed install afterwards still shares the clone.
func TestHostileInstallSparesHeldBuild(t *testing.T) {
	partial, full := nanoKey("QUQ", ptq.Partial), nanoKey("QUQ", ptq.Full)
	fullBlob := snapshotsOf(t, testRegistryOptions(), full)[0]
	// The checkpoint starts with its magic; break it and re-seal the
	// payload's digest (file header: magic, version, digest in [12:44],
	// payload length; the payload from byte 52).
	hostile := append([]byte(nil), fullBlob...)
	at := bytes.Index(hostile, []byte("QUQVIT01"))
	if at < 0 {
		t.Fatal("no checkpoint magic in the snapshot")
	}
	hostile[at] ^= 0xff
	sum := sha256.Sum256(hostile[52:])
	copy(hostile[12:44], sum[:])
	if _, err := snapstore.Decode(hostile); err == nil {
		t.Fatal("the hostile snapshot decodes")
	}

	entered, hold := make(chan struct{}), make(chan struct{})
	opts := testRegistryOptions()
	opts.BuildHook = func(k Key) error {
		if k == partial {
			close(entered)
			<-hold
		}
		return nil
	}
	s := New(Config{Registry: opts})
	drainOnCleanup(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	r := s.Registry()
	built := make(chan error, 1)
	go func() {
		_, _, err := r.Get(context.Background(), partial)
		built <- err
	}()
	<-entered

	resp, err := http.Post(ts.URL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(hostile))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hostile install: status %d, want 400", resp.StatusCode)
	}
	close(hold)
	if err := <-built; err != nil {
		t.Fatal(err)
	}
	if got, want := registryDigest(t, r, partial), standaloneDigest(t, r, partial); got != want {
		t.Fatalf("held build digest %s, standalone %s", got, want)
	}

	if _, _, err := r.InstallSnapshot(fullBlob); err != nil {
		t.Fatal(err)
	}
	if mustGet(t, r, full).Model != mustGet(t, r, partial).Model {
		t.Fatal("the install after the hostile one holds a weight clone of its own")
	}
	if got := r.nodeRuns[weightsNode].Load(); got != 1 {
		t.Fatalf("%d weight passes, want the held build's one", got)
	}
}

// TestWarmRestartSharesEqualWeights is the warm restart's sharing
// oracle: two restored entries share a vit.Model exactly when they
// belong to one (config, method, bits) family and their checkpoints are
// byte-identical — a family whose regimes come from two different
// builds gets two models — and sharing changes no entry's bytes: each
// re-encodes to its file. check.sh runs it at -cpu 1,2,4, so the
// parallel load's one, two and four workers each race for the families.
func TestWarmRestartSharesEqualWeights(t *testing.T) {
	opts := testRegistryOptions()
	opts.SnapshotDir = t.TempDir()
	keys := []Key{
		nanoKey("QUQ", ptq.Partial), nanoKey("QUQ", ptq.Full),
		nanoKey("BaseQ", ptq.Partial), nanoKey("BaseQ", ptq.Full),
		{Config: vit.ViTNano.Name, Method: "QUQ", Bits: 4, Regime: ptq.Partial},
		nanoKey("FQ-ViT", ptq.Partial), nanoKey("FQ-ViT", ptq.Full),
	}
	diverged := keys[len(keys)-1]
	r := NewRegistry(opts, nil)
	for _, k := range keys[:len(keys)-1] {
		mustGet(t, r, k)
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The last key is another seed's build: its family's two regimes
	// carry different weights.
	other := testRegistryOptions()
	other.Seed = 8
	store, _, err := snapstore.Open(opts.SnapshotDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteBlob(diverged.String(), snapshotsOf(t, other, diverged)[0]); err != nil {
		t.Fatal(err)
	}

	met := NewMetrics()
	r = NewRegistry(opts, met)
	drainOnCleanup(t, r)
	awaitWarm(r)
	if got := met.SnapshotLoads.Value(); got != uint64(len(keys)) {
		t.Fatalf("snapshot loads = %d, want %d", got, len(keys))
	}
	qms := make([]*ptq.QuantizedModel, len(keys))
	ckpts := make([][]byte, len(keys))
	distinct := map[vit.Model]bool{}
	for i, k := range keys {
		qm, cached, err := r.Get(context.Background(), k)
		if err != nil || !cached {
			t.Fatalf("%v: cached %v, err %v", k, cached, err)
		}
		file, err := os.ReadFile(snapstore.PathFor(opts.SnapshotDir, k.String()))
		if err != nil {
			t.Fatal(err)
		}
		if b, _, err := r.Snapshot(k); err != nil || !bytes.Equal(b, file) {
			t.Fatalf("%v does not re-encode to its file (err %v)", k, err)
		}
		qms[i], ckpts[i] = qm, vit.AppendCheckpoint(nil, qm.Model)
		distinct[qm.Model] = true
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			a, b := keys[i], keys[j]
			sameFamily := a.Config == b.Config && a.Method == b.Method && a.Bits == b.Bits
			want := sameFamily && bytes.Equal(ckpts[i], ckpts[j])
			if shared := qms[i].Model == qms[j].Model; shared != want {
				t.Errorf("%v and %v: share a model %v, want %v", a, b, shared, want)
			}
		}
	}
	// QUQ w6, BaseQ w6 and QUQ w4 one model each; FQ-ViT two.
	if len(distinct) != 5 {
		t.Fatalf("%d distinct models over %d entries, want 5", len(distinct), len(keys))
	}
}

// BenchmarkWarmRestart times a registry's warm restart over the
// cold-keys mix — ten ViT-S and ten ViT-Nano QUQ keys, bits 4-8 × both
// regimes, built once through a registry — from construction until it
// stops warming, and reports what the restored registry keeps resident:
// the live heap, after a collection, with the registry alive, less the
// live heap before. Both regimes of a family serve one weight clone, so
// that is one model per family, not per file.
//
//	go test -run '^$' -bench WarmRestart -benchtime 20x -cpu 1,2 ./internal/serve/
func BenchmarkWarmRestart(b *testing.B) {
	opts := testRegistryOptions()
	opts.SnapshotDir = b.TempDir()
	r := NewRegistry(opts, nil)
	for _, cfg := range []vit.Config{vit.ViTSmall, vit.ViTNano} {
		for bits := 4; bits <= 8; bits++ {
			for _, regime := range []ptq.Regime{ptq.Partial, ptq.Full} {
				mustGet(b, r, Key{Config: cfg.Name, Method: "QUQ", Bits: bits, Regime: regime})
			}
		}
	}
	if err := r.Drain(context.Background()); err != nil {
		b.Fatal(err)
	}
	restart := func() *Registry {
		met := NewMetrics()
		r := NewRegistry(opts, met)
		awaitWarm(r)
		if got := met.SnapshotLoads.Value(); got != 20 {
			b.Fatalf("restored %d keys, want 20", got)
		}
		return r
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := restart().Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r = restart()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/(1<<20), "resident-MiB")
	if err := r.Drain(context.Background()); err != nil {
		b.Fatal(err)
	}
}
