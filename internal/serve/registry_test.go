package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/snapstore"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// testRegistryOptions keeps calibration cheap: ViT-Nano, 2 images, small
// reservoirs.
func testRegistryOptions() RegistryOptions {
	return RegistryOptions{Seed: 7, CalibImages: 2, MaxSamplesPerSite: 2048}
}

func nanoKey(method string, regime ptq.Regime) Key {
	return Key{Config: vit.ViTNano.Name, Method: method, Bits: 6, Regime: regime}
}

// TestRegistrySingleflight is the calibrate-exactly-once guarantee: 16
// concurrent first requests for one key must produce one build (one
// cache miss) and the identical *QuantizedModel pointer.
func TestRegistrySingleflight(t *testing.T) {
	met := NewMetrics()
	r := NewRegistry(testRegistryOptions(), met)
	key := nanoKey("BaseQ", ptq.Partial)

	const callers = 16
	models := make([]*ptq.QuantizedModel, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qm, _, err := r.Get(context.Background(), key)
			if err != nil {
				t.Error(err)
				return
			}
			models[i] = qm
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if models[i] != models[0] {
			t.Fatal("concurrent Gets returned different model instances")
		}
	}
	if got := met.CacheMisses.Value(); got != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 calibration", got)
	}
	if got := met.CacheHits.Value(); got != callers-1 {
		t.Fatalf("cache hits = %d, want %d", got, callers-1)
	}

	// A second key on the same config reuses the base model: one more
	// miss, no divergent base build.
	if _, cached, err := r.Get(context.Background(), nanoKey("BaseQ", ptq.Full)); err != nil || cached {
		t.Fatalf("second key: cached=%v err=%v", cached, err)
	}
	if got := met.CacheMisses.Value(); got != 2 {
		t.Fatalf("cache misses after second key = %d, want 2", got)
	}
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry(testRegistryOptions(), nil)
	cases := []Key{
		{Config: "no-such-model", Method: "QUQ", Bits: 6, Regime: ptq.Partial},
		{Config: vit.ViTNano.Name, Method: "no-such-method", Bits: 6, Regime: ptq.Partial},
		{Config: vit.ViTNano.Name, Method: "QUQ", Bits: 2, Regime: ptq.Partial},
		{Config: vit.ViTNano.Name, Method: "QUQ", Bits: 99, Regime: ptq.Partial},
	}
	for _, key := range cases {
		if _, _, err := r.Get(context.Background(), key); err == nil {
			t.Fatalf("key %v accepted, want validation error", key)
		}
	}
	if _, err := ParseRegime("bogus"); err == nil {
		t.Fatal("bogus regime accepted")
	}
	if reg, err := ParseRegime(""); err != nil || reg != ptq.Partial {
		t.Fatalf("empty regime = %v, %v; want partial", reg, err)
	}
}

// TestCanonicalKey pins the canonical form: case-insensitive model and
// method spelling, defaults for empty fields, and rejection of unknown
// enum values. The canonical string is what quq-shard hashes, so "Quq"
// and "quq" resolving to one spelling is what keeps one selection on one
// shard.
func TestCanonicalKey(t *testing.T) {
	for _, c := range []struct {
		model, method string
		bits          int
		regime        string
		want          string
	}{
		{"", "", 0, "", "ViT-Nano/QUQ/w6a6/partial"},
		{"vit-nano", "quq", 6, "partial", "ViT-Nano/QUQ/w6a6/partial"},
		{"VIT-NANO", "Quq", 6, "PARTIAL", "ViT-Nano/QUQ/w6a6/partial"},
		{"ViT-S", "fq-vit", 8, "Full", "ViT-S/FQ-ViT/w8a8/full"},
		{"swin-t", "biscaled-fxp", 4, "", "Swin-T/BiScaled-FxP/w4a4/partial"},
	} {
		key, err := KeyFromWire(c.model, c.method, c.bits, c.regime)
		if err != nil {
			t.Fatalf("KeyFromWire(%q, %q, %d, %q): %v", c.model, c.method, c.bits, c.regime, err)
		}
		if key.String() != c.want {
			t.Errorf("KeyFromWire(%q, %q, %d, %q) = %s; want %s",
				c.model, c.method, c.bits, c.regime, key, c.want)
		}
	}

	for _, c := range []struct {
		model, method string
		bits          int
		regime        string
	}{
		{"no-such-model", "QUQ", 6, ""},
		{"ViT-Nano", "no-such-method", 6, ""},
		{"ViT-Nano", "QUQ", 2, ""},
		{"ViT-Nano", "QUQ", 17, ""},
		{"ViT-Nano", "QUQ", 6, "bogus"},
		// A method name where a model belongs (and vice versa) must not
		// canonicalize across namespaces.
		{"QUQ", "QUQ", 6, ""},
		{"ViT-Nano", "ViT-S", 6, ""},
	} {
		if key, err := KeyFromWire(c.model, c.method, c.bits, c.regime); err == nil {
			t.Errorf("KeyFromWire(%q, %q, %d, %q) = %s; want error",
				c.model, c.method, c.bits, c.regime, key)
		}
	}
}

// TestRegistryCanonicalizationDedupes proves the fix at the cache level:
// two spellings of one selection share a single build slot.
func TestRegistryCanonicalizationDedupes(t *testing.T) {
	met := NewMetrics()
	r := NewRegistry(testRegistryOptions(), met)
	for _, method := range []string{"BaseQ", "baseq", "BASEQ"} {
		if _, _, err := r.Get(context.Background(), nanoKey(method, ptq.Partial)); err != nil {
			t.Fatal(err)
		}
	}
	if got := met.CacheMisses.Value(); got != 1 {
		t.Fatalf("cache misses across spellings = %d, want exactly 1", got)
	}
	if entries := r.Entries(); len(entries) != 1 {
		t.Fatalf("registry entries = %d, want 1 canonical entry", len(entries))
	}
}

func TestRegistryEntriesDeterministic(t *testing.T) {
	r := NewRegistry(testRegistryOptions(), nil)
	for _, m := range []string{"BaseQ", "QUQ"} {
		if _, _, err := r.Get(context.Background(), nanoKey(m, ptq.Partial)); err != nil {
			t.Fatal(err)
		}
	}
	a := r.Entries()
	b := r.Entries()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("entries = %d, want 2", len(a))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatal("two Entries snapshots ordered differently")
		}
		if !a[i].Ready {
			t.Fatalf("entry %s not ready after Get returned", a[i].Key)
		}
	}
	if a[0].Key >= a[1].Key {
		t.Fatalf("entries not sorted: %s >= %s", a[0].Key, a[1].Key)
	}
}

// TestRegistryBuildSurvivesCallerCancellation: the calibrate-once
// contract under a disconnecting client — the first caller's context
// expires mid-build, the build still completes on its detached
// goroutine, and the next request is served from cache with no second
// calibration.
func TestRegistryBuildSurvivesCallerCancellation(t *testing.T) {
	met := NewMetrics()
	opts := testRegistryOptions()
	var mu sync.Mutex
	builds := 0
	gate := make(chan struct{})
	opts.BuildHook = func(Key) error {
		mu.Lock()
		builds++
		mu.Unlock()
		<-gate
		return nil
	}
	r := NewRegistry(opts, met)
	key := nanoKey("BaseQ", ptq.Partial)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.Get(ctx, key); err != context.Canceled {
		t.Fatalf("cancelled first Get = %v, want context.Canceled", err)
	}
	close(gate) // let the detached build finish

	qm, cached, err := r.Get(context.Background(), key)
	if err != nil || qm == nil {
		t.Fatalf("second Get after abandoned first: qm=%v err=%v", qm, err)
	}
	if !cached {
		t.Fatal("second Get rebuilt instead of hitting the abandoned build's cache entry")
	}
	mu.Lock()
	got := builds
	mu.Unlock()
	if got != 1 {
		t.Fatalf("calibrations = %d, want exactly 1 despite the disconnected first caller", got)
	}
	if met.CacheMisses.Value() != 1 {
		t.Fatalf("cache misses = %d, want 1", met.CacheMisses.Value())
	}
}

// TestRegistryFailedBuildEvictedAndRetried: a transient calibration
// failure must not poison the key — the errored entry is evicted and
// the next request rebuilds successfully.
func TestRegistryFailedBuildEvictedAndRetried(t *testing.T) {
	met := NewMetrics()
	opts := testRegistryOptions()
	var mu sync.Mutex
	builds := 0
	opts.BuildHook = func(Key) error {
		mu.Lock()
		defer mu.Unlock()
		builds++
		if builds == 1 {
			return errors.New("chaos: injected calibration failure")
		}
		return nil
	}
	r := NewRegistry(opts, met)
	key := nanoKey("BaseQ", ptq.Partial)

	if _, _, err := r.Get(context.Background(), key); err == nil {
		t.Fatal("first Get succeeded despite failing calibration hook")
	}
	if entries := r.Entries(); len(entries) != 0 {
		t.Fatalf("failed build left %d registry entries, want eviction", len(entries))
	}
	qm, _, err := r.Get(context.Background(), key)
	if err != nil || qm == nil {
		t.Fatalf("retry after failed build: qm=%v err=%v", qm, err)
	}
	mu.Lock()
	got := builds
	mu.Unlock()
	if got != 2 {
		t.Fatalf("calibrations = %d, want 2 (fail then retry)", got)
	}
}

// TestRegistryIntPath: with RegistryOptions.IntPath set, QUQ-method
// builds come out with the integer weight path installed, non-recording
// methods are unaffected, and SetIntPath toggles cached models in place.
func TestRegistryIntPath(t *testing.T) {
	opts := testRegistryOptions()
	opts.IntPath = true
	r := NewRegistry(opts, nil)

	quq, _, err := r.Get(context.Background(), nanoKey("QUQ", ptq.Partial))
	if err != nil {
		t.Fatal(err)
	}
	if !quq.IntPath() {
		t.Fatal("QUQ build did not enable the int path")
	}
	base, _, err := r.Get(context.Background(), nanoKey("BaseQ", ptq.Partial))
	if err != nil {
		t.Fatal(err)
	}
	if base.IntPath() {
		t.Fatal("non-QUQ build enabled the int path")
	}

	n, err := r.SetIntPath(false)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("toggled %d cached models, want 1 (only the QUQ entry)", n)
	}
	if quq.IntPath() {
		t.Fatal("runtime disable did not reach the cached model")
	}
	if n, err = r.SetIntPath(true); err != nil || n != 1 {
		t.Fatalf("re-enable: n=%d err=%v", n, err)
	}
	if !quq.IntPath() {
		t.Fatal("runtime enable did not reach the cached model")
	}
}

// TestIntDeclinesMetric: quq_serve_int_declines_total reads 0 while every
// weight GEMM of an -int-path worker runs on integers, moves by exactly
// what the resident models' engines declined — here one forward whose
// first GEMM input a tap moved off the grid — and counts it once however
// often /metrics is scraped, engine swaps included.
func TestIntDeclinesMetric(t *testing.T) {
	opts := testRegistryOptions()
	opts.IntPath = true
	s := New(Config{Registry: opts})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		page, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(page)
	}

	flat, imgs := flatImages(1)
	if resp, body := postJSON(t, ts.URL+"/v1/classify", map[string]any{"images": flat}); resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: %d %s", resp.StatusCode, body)
	}
	if page := scrape(); !strings.Contains(page, "quq_serve_int_declines_total 0\n") {
		t.Fatalf("after an all-integer classify:\n%s", page)
	}

	key, err := KeyFromWire("", "", 0, "") // what a classify naming nothing asks for
	if err != nil {
		t.Fatal(err)
	}
	qm, cached, err := s.Registry().Get(context.Background(), key)
	if err != nil || !cached {
		t.Fatalf("the classified key %v: cached %v, err %v", key, cached, err)
	}
	qm.ForwardOpts(imgs[0], vit.ForwardOpts{Tap: func(site vit.Site, x *tensor.Tensor) *tensor.Tensor {
		if site.Key() != "b00.ln1.out" {
			return x
		}
		off := x.Clone()
		off.Data()[0] += 1e-3
		return off
	}})
	if _, err := s.SetIntPath(true); err != nil { // a fresh engine; the count carries over
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if page := scrape(); !strings.Contains(page, "quq_serve_int_declines_total 1\n") {
			t.Fatalf("scrape %d after one declined GEMM:\n%s", i, page)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestEmptySnapshotDirIsNotWarming: a worker with nothing to restore
// serves from construction. Its warm restart used to run on a goroutine
// anyway, and a benchmark's first 20 quantize requests, sent in the
// milliseconds before that goroutine ran, all came back 503.
func TestEmptySnapshotDirIsNotWarming(t *testing.T) {
	opts := testRegistryOptions()
	opts.SnapshotDir = t.TempDir()
	r := NewRegistry(opts, nil)
	if r.Warming() {
		t.Fatal("a registry over an empty snapshot dir answers 503 until a goroutine runs")
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWarmRestartSkipsUnreadableSnapshot: an unreadable file in the
// snapshot dir costs one snapshot error and nothing else — the snapshots
// around it still come back, with no rebuild and no quarantine.
func TestWarmRestartSkipsUnreadableSnapshot(t *testing.T) {
	opts := testRegistryOptions()
	opts.SnapshotDir = t.TempDir()
	key := nanoKey("BaseQ", ptq.Partial)
	r := NewRegistry(opts, NewMetrics())
	for r.Warming() {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := r.Get(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Dangling symlinks named to sort before and after the snapshot.
	for _, name := range []string{"0000.qsnap", "ffff.qsnap"} {
		if err := os.Symlink(filepath.Join(opts.SnapshotDir, "missing"), filepath.Join(opts.SnapshotDir, name)); err != nil {
			t.Fatal(err)
		}
	}

	met := NewMetrics()
	r = NewRegistry(opts, met)
	for r.Warming() {
		time.Sleep(time.Millisecond)
	}
	if got := met.SnapshotErrors.Value(); got != 2 {
		t.Errorf("snapshot errors = %d, want 2 (one per unreadable file)", got)
	}
	if got := met.SnapshotLoads.Value(); got != 1 {
		t.Errorf("snapshot loads = %d, want 1", got)
	}
	if got := met.SnapshotQuarantined.Value(); got != 0 {
		t.Errorf("quarantined = %d, want 0", got)
	}
	if _, _, err := r.Get(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if got := met.CacheMisses.Value(); got != 0 {
		t.Errorf("cache misses = %d, want 0: the restored key was rebuilt", got)
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRestoredSiblingsShareReadOnlyModel: the two regimes of one family
// come back from a warm restart sharing one vit.Model, and nothing that
// serves them writes it — classifying through both keys, arming and
// disarming the integer path leave each key's Snapshot equal to its
// file, and installing a different build over the Partial key moves
// neither the Full sibling's digest nor its Snapshot bytes.
func TestRestoredSiblingsShareReadOnlyModel(t *testing.T) {
	opts := testRegistryOptions()
	opts.SnapshotDir = t.TempDir()
	keys := []Key{nanoKey("QUQ", ptq.Partial), nanoKey("QUQ", ptq.Full)}
	r := NewRegistry(opts, nil)
	for r.Warming() {
		time.Sleep(time.Millisecond)
	}
	for _, k := range keys {
		if _, _, err := r.Get(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	files := make([][]byte, len(keys))
	for i, k := range keys {
		b, err := os.ReadFile(snapstore.PathFor(opts.SnapshotDir, k.String()))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = b
	}

	met := NewMetrics()
	r = NewRegistry(opts, met)
	for r.Warming() {
		time.Sleep(time.Millisecond)
	}
	if got := met.SnapshotLoads.Value(); got != 2 {
		t.Fatalf("snapshot loads = %d, want 2", got)
	}
	qms := make([]*ptq.QuantizedModel, len(keys))
	for i, k := range keys {
		qm, cached, err := r.Get(context.Background(), k)
		if err != nil || !cached {
			t.Fatalf("%v: cached %v, err %v", k, cached, err)
		}
		qms[i] = qm
	}
	if qms[0].Model != qms[1].Model {
		t.Fatal("the restored regimes of one family hold two weight clones")
	}
	imgs := data.Images(vit.ViTNano, 3, 1234)
	for _, on := range []bool{false, true, false} {
		if n, err := r.SetIntPath(on); err != nil || n != len(qms) {
			t.Fatalf("int path %v: toggled %d, err %v; want %d", on, n, err, len(qms))
		}
		for _, qm := range qms {
			if qm.IntPath() != on {
				t.Fatalf("int path %v did not reach a restored model", on)
			}
			qm.ForwardBatch(imgs, 0)
		}
	}
	snapshot := func(k Key) ([]byte, string) {
		t.Helper()
		b, digest, err := r.Snapshot(k)
		if err != nil {
			t.Fatal(err)
		}
		return b, digest
	}
	for i, k := range keys {
		if b, _ := snapshot(k); !bytes.Equal(b, files[i]) {
			t.Fatalf("%v: Snapshot differs from its file after serving", k)
		}
	}
	partialDigest, fullDigest := r.Digest(keys[0]), r.Digest(keys[1])

	other := testRegistryOptions()
	other.Seed = 8
	o := NewRegistry(other, nil)
	if _, _, err := o.Get(context.Background(), keys[0]); err != nil {
		t.Fatal(err)
	}
	blob, digest, err := o.Snapshot(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, got, err := r.InstallSnapshot(blob); err != nil || got != digest || r.Digest(keys[0]) != digest {
		t.Fatalf("install over %v: digest %s, err %v; want %s", keys[0], got, err, digest)
	}
	if digest == partialDigest {
		t.Fatal("the other build's Partial snapshot is the restored one")
	}
	if got := r.Digest(keys[1]); got != fullDigest {
		t.Fatalf("Full sibling's digest moved from %s to %s", fullDigest, got)
	}
	if b, _ := snapshot(keys[1]); !bytes.Equal(b, files[1]) {
		t.Fatal("Full sibling's Snapshot changed when its Partial sibling was replaced")
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
