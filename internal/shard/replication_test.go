package shard_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"quq/internal/serve"
	"quq/internal/shard"
)

// repBackend is a fake quq-serve that records, per endpoint, which keys
// it saw and which replica slot each request was stamped with.
type repBackend struct {
	srv          *httptest.Server
	healthy      atomic.Bool
	modelsBroken atomic.Bool
	scrapes      atomic.Int64 // GET /models served

	mu         sync.Mutex
	quantizes  []string // "key@replica" per /v1/quantize
	classifies []string
	entries    []serve.EntryInfo // what /models reports
}

func (b *repBackend) record(list *[]string, r *http.Request) string {
	var sel struct {
		Model  string `json:"model"`
		Method string `json:"method"`
		Bits   int    `json:"bits"`
		Regime string `json:"regime"`
	}
	//quq:errdrop-ok test fake; malformed bodies surface as a zero key in assertions
	_ = json.NewDecoder(r.Body).Decode(&sel)
	key, _ := serve.KeyFromWire(sel.Model, sel.Method, sel.Bits, sel.Regime)
	replica := r.Header.Get(serve.ReplicaHeader)
	if replica == "" {
		replica = "-"
	}
	stamp := key.String() + "@" + replica
	b.mu.Lock()
	*list = append(*list, stamp)
	b.mu.Unlock()
	return key.String()
}

func (b *repBackend) seen(list *[]string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), *list...)
}

func newRepBackend(t *testing.T) *repBackend {
	t.Helper()
	b := &repBackend{}
	b.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/quantize", func(w http.ResponseWriter, r *http.Request) {
		key := b.record(&b.quantizes, r)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"key":%q,"cached":false,"build_ms":1}`, key)
	})
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		key := b.record(&b.classifies, r)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"key":%q,"results":[]}`, key)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !b.healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	})
	mux.HandleFunc("GET /models", func(w http.ResponseWriter, r *http.Request) {
		b.scrapes.Add(1)
		if b.modelsBroken.Load() {
			http.Error(w, "wedged", http.StatusInternalServerError)
			return
		}
		b.mu.Lock()
		entries := append([]serve.EntryInfo(nil), b.entries...)
		b.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		//quq:errdrop-ok test fake writing to an in-memory recorder
		_ = json.NewEncoder(w).Encode(map[string]any{"entries": entries})
	})
	// A snapshot is the entry itself, as JSON: GET hands out the held
	// entry for ?key=, POST installs (or replaces) the one it carries.
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		e, ok := b.entry(r.URL.Query().Get("key"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		//quq:errdrop-ok test fake writing to an in-memory recorder
		_ = json.NewEncoder(w).Encode(e)
	})
	mux.HandleFunc("POST /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		var e serve.EntryInfo
		if err := json.NewDecoder(r.Body).Decode(&e); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b.setEntry(e)
	})
	b.srv = httptest.NewServer(mux)
	t.Cleanup(b.srv.Close)
	return b
}

// entry returns the /models entry held for key.
func (b *repBackend) entry(key string) (serve.EntryInfo, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.entries {
		if e.Key == key {
			return e, true
		}
	}
	return serve.EntryInfo{}, false
}

// setEntry installs e in /models, replacing any entry for its key.
func (b *repBackend) setEntry(e serve.EntryInfo) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.entries {
		if b.entries[i].Key == e.Key {
			b.entries[i] = e
			return
		}
	}
	b.entries = append(b.entries, e)
}

// newRepFront builds a replicating front over the fakes, probing and
// retries disabled so health transitions are explicit.
func newRepFront(t *testing.T, replicas int, backends ...*repBackend) *shard.Front {
	t.Helper()
	addrs := make([]string, len(backends))
	for i, b := range backends {
		addrs[i] = b.srv.URL
	}
	f := shard.New(shard.Options{
		Backends:      addrs,
		Replicas:      replicas,
		ProbeInterval: -1,
		Retries:       -1,
		RetryBackoff:  1,
	})
	t.Cleanup(f.Close)
	return f
}

func byAddr(backends []*repBackend) map[string]*repBackend {
	m := make(map[string]*repBackend, len(backends))
	for _, b := range backends {
		m[b.srv.URL] = b
	}
	return m
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestReplicatedQuantizeFansOut: with R=2 a quantize lands on both
// replica owners — each stamped with its slot — and on nobody else; the
// relayed response is the primary's, epoch-stamped.
func TestReplicatedQuantizeFansOut(t *testing.T) {
	backends := []*repBackend{newRepBackend(t), newRepBackend(t), newRepBackend(t)}
	f := newRepFront(t, 2, backends...)
	addrs := byAddr(backends)

	const key = "ViT-S/QUQ/w6a6/partial"
	owners := f.Ring().OwnerN(key, 2)
	if len(owners) != 2 {
		t.Fatalf("OwnerN returned %d owners, want 2", len(owners))
	}
	w := post(t, f.Handler(), "/v1/quantize", `{"model":"ViT-S","method":"QUQ","bits":6}`)
	if w.Code != http.StatusOK {
		t.Fatalf("replicated quantize: status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(shard.BackendHeader); got != owners[0].Addr() {
		t.Fatalf("relayed from %s, want primary %s", got, owners[0].Addr())
	}
	if got := w.Header().Get(shard.EpochHeader); got != "3" {
		t.Fatalf("epoch header = %q, want \"3\" (three seed joins)", got)
	}
	for slot, owner := range owners {
		want := fmt.Sprintf("%s@%d", key, slot)
		got := addrs[owner.Addr()].seen(&addrs[owner.Addr()].quantizes)
		if len(got) != 1 || got[0] != want {
			t.Fatalf("replica %d (%s) saw %v, want [%s]", slot, owner.Addr(), got, want)
		}
	}
	for _, b := range backends {
		if b.srv.URL != owners[0].Addr() && b.srv.URL != owners[1].Addr() {
			if n := len(b.seen(&b.quantizes)); n != 0 {
				t.Fatalf("non-owner saw %d quantizes", n)
			}
		}
	}
}

// TestReplicatedQuantizeClientCancelDoesNotEject: one cancelled quantize
// must not eject the R owners it was fanned out to — they were healthy
// and busy, the client left. The front answers 504, no replica loses
// health, and the next quantize reaches the same owners.
func TestReplicatedQuantizeClientCancelDoesNotEject(t *testing.T) {
	srvA, arrivedA, releaseA := holdBackend(t)
	srvB, arrivedB, releaseB := holdBackend(t)
	f := shard.New(shard.Options{
		Backends: []string{srvA.URL, srvB.URL}, Replicas: 2,
		ProbeInterval: -1, Retries: -1, RetryBackoff: 1,
	})
	t.Cleanup(f.Close)

	const body = `{"model":"ViT-S","method":"QUQ","bits":6}`
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/quantize", strings.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Handler().ServeHTTP(w, req)
	}()
	<-arrivedA
	<-arrivedB // both owners hold the fan-out
	cancel()
	<-done
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("cancelled quantize: status %d, want 504", w.Code)
	}
	if got := f.Metrics().Ejections.Value(); got != 0 {
		t.Fatalf("ejections = %d after a client cancel, want 0", got)
	}
	if got := f.Ring().HealthyCount(); got != 2 {
		t.Fatalf("healthy count = %d, want 2: no replica failed", got)
	}

	releaseA()
	releaseB()
	w2 := post(t, f.Handler(), "/v1/quantize", body)
	owners := f.Ring().OwnerN("ViT-S/QUQ/w6a6/partial", 2)
	if w2.Code != http.StatusOK || w2.Header().Get(shard.BackendHeader) != owners[0].Addr() {
		t.Fatalf("next quantize: status %d via %q, want 200 via primary %s",
			w2.Code, w2.Header().Get(shard.BackendHeader), owners[0].Addr())
	}
}

// TestReplicatedReadFailsOverToReplica: with R=2, killing the primary
// owner routes reads to the surviving replica — the backend that
// already holds the calibration — not to an arbitrary ring successor.
func TestReplicatedReadFailsOverToReplica(t *testing.T) {
	backends := []*repBackend{newRepBackend(t), newRepBackend(t), newRepBackend(t)}
	f := newRepFront(t, 2, backends...)
	addrs := byAddr(backends)

	const key = "DeiT-B/QUQ/w6a6/partial"
	body := `{"model":"DeiT-B","method":"QUQ","bits":6}`
	owners := f.Ring().OwnerN(key, 2)

	w := post(t, f.Handler(), "/v1/classify", body)
	if w.Code != http.StatusOK {
		t.Fatalf("classify: status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(shard.BackendHeader); got != owners[0].Addr() {
		t.Fatalf("read served by %s, want primary %s", got, owners[0].Addr())
	}
	if got := addrs[owners[0].Addr()].seen(&addrs[owners[0].Addr()].classifies); len(got) != 1 || !strings.HasSuffix(got[0], "@0") {
		t.Fatalf("primary read stamps %v, want one @0", got)
	}

	addrs[owners[0].Addr()].srv.Close() // kill the primary
	w = post(t, f.Handler(), "/v1/classify", body)
	if w.Code != http.StatusOK {
		t.Fatalf("failover classify: status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(shard.BackendHeader); got != owners[1].Addr() {
		t.Fatalf("failover read served by %s, want surviving replica %s", got, owners[1].Addr())
	}
	if got := addrs[owners[1].Addr()].seen(&addrs[owners[1].Addr()].classifies); len(got) != 1 || !strings.HasSuffix(got[0], "@1") {
		t.Fatalf("replica read stamps %v, want one @1", got)
	}
}

// TestAdminJoinAndLeave: joins admit live backends without a restart
// (epoch bump, ring membership, topology gauges), re-joins are
// idempotent, and leaves evict. Unknown leaves are 404, empty bodies
// 400.
func TestAdminJoinAndLeave(t *testing.T) {
	b0, b1 := newRepBackend(t), newRepBackend(t)
	f := newRepFront(t, 1, b0, b1)

	late := newRepBackend(t)
	w := post(t, f.Handler(), "/admin/join", fmt.Sprintf(`{"addr":%q}`, late.srv.URL))
	if w.Code != http.StatusOK {
		t.Fatalf("join: status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Epoch uint64 `json:"epoch"`
		Added bool   `json:"added"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Added || resp.Epoch != 3 {
		t.Fatalf("join = %+v, want added at epoch 3", resp)
	}
	if got := len(f.Ring().Backends()); got != 3 {
		t.Fatalf("ring backends after join = %d, want 3", got)
	}
	if got := f.Metrics().RingBackends.Value(); got != 3 {
		t.Fatalf("quq_shard_ring_backends = %d, want 3", got)
	}
	if got := f.Metrics().RingEpoch.Value(); got != 3 {
		t.Fatalf("quq_shard_ring_epoch = %d, want 3", got)
	}
	if _, ok := f.Metrics().Inflight.Value(late.srv.URL); !ok {
		t.Fatal("joined backend missing from the inflight gauge vec")
	}

	// Idempotent re-join: no epoch movement.
	w = post(t, f.Handler(), "/admin/join", fmt.Sprintf(`{"addr":%q}`, late.srv.URL))
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Added || resp.Epoch != 3 {
		t.Fatalf("re-join = %+v, want not-added at epoch 3", resp)
	}

	w = post(t, f.Handler(), "/admin/leave", fmt.Sprintf(`{"addr":%q}`, late.srv.URL))
	if w.Code != http.StatusOK {
		t.Fatalf("leave: status %d: %s", w.Code, w.Body)
	}
	if got := len(f.Ring().Backends()); got != 2 {
		t.Fatalf("ring backends after leave = %d, want 2", got)
	}
	if _, ok := f.Metrics().Inflight.Value(late.srv.URL); ok {
		t.Fatal("left backend still in the inflight gauge vec")
	}
	if w := post(t, f.Handler(), "/admin/leave", `{"addr":"127.0.0.1:9"}`); w.Code != http.StatusNotFound {
		t.Fatalf("unknown leave: status %d, want 404", w.Code)
	}
	if w := post(t, f.Handler(), "/admin/join", `{}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty join: status %d, want 400", w.Code)
	}
}

// TestAdminDrainHandsOffKeys: a drain re-warms the leaver's ready
// entries on their post-departure owners before removal; not-ready
// entries are skipped; the member is gone from /cluster afterwards.
func TestAdminDrainHandsOffKeys(t *testing.T) {
	backends := []*repBackend{newRepBackend(t), newRepBackend(t), newRepBackend(t)}
	f := newRepFront(t, 1, backends...)
	addrs := byAddr(backends)

	const key = "Swin-T/QUQ/w6a6/partial"
	owner, _ := f.Ring().Owner(key)
	drainee := addrs[owner.Addr()]
	drainee.entries = []serve.EntryInfo{
		{Key: key, Ready: true},
		{Key: "ViT-S/BaseQ/w8a8/full", Ready: false}, // mid-build: not handed off
	}
	newOwners := f.Ring().OwnerNSkip(key, 1, owner.Addr())
	if len(newOwners) != 1 || newOwners[0].Addr() == owner.Addr() {
		t.Fatalf("bad post-departure owners %v", newOwners)
	}

	w := post(t, f.Handler(), "/admin/drain", fmt.Sprintf(`{"addr":%q}`, owner.Addr()))
	if w.Code != http.StatusOK {
		t.Fatalf("drain: status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Epoch uint64 `json:"epoch"`
		Moved int    `json:"moved"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Moved != 1 || resp.Epoch != 4 {
		t.Fatalf("drain = %+v, want 1 key moved at epoch 4", resp)
	}
	warmed := addrs[newOwners[0].Addr()].seen(&addrs[newOwners[0].Addr()].quantizes)
	if len(warmed) != 1 || warmed[0] != key+"@0" {
		t.Fatalf("new owner warms = %v, want [%s@0]", warmed, key)
	}
	if f.Members().IsMember(owner.Addr()) {
		t.Fatal("drained backend still a member")
	}
	if got := f.Metrics().Handoffs.Value(); got != 1 {
		t.Fatalf("handoff counter = %d, want 1", got)
	}

	// The key's new home serves it from now on.
	w = post(t, f.Handler(), "/v1/classify", `{"model":"Swin-T","method":"QUQ","bits":6}`)
	if got := w.Header().Get(shard.BackendHeader); got != newOwners[0].Addr() {
		t.Fatalf("post-drain read served by %s, want %s", got, newOwners[0].Addr())
	}
}

// TestAdminDrainAbortsOnFailure: an unreachable /models on the drainee
// fails the handoff; the drain aborts with the member intact and the
// epoch unmoved, and a retry after recovery succeeds.
func TestAdminDrainAbortsOnFailure(t *testing.T) {
	b0, b1 := newRepBackend(t), newRepBackend(t)
	f := newRepFront(t, 1, b0, b1)

	b0.modelsBroken.Store(true)
	w := post(t, f.Handler(), "/admin/drain", fmt.Sprintf(`{"addr":%q}`, b0.srv.URL))
	if w.Code != http.StatusBadGateway {
		t.Fatalf("failed drain: status %d, want 502", w.Code)
	}
	if !f.Members().IsMember(b0.srv.URL) {
		t.Fatal("failed drain removed the member")
	}
	if got := f.Members().Epoch(); got != 2 {
		t.Fatalf("epoch after failed drain = %d, want 2 (unchanged)", got)
	}

	b0.modelsBroken.Store(false)
	w = post(t, f.Handler(), "/admin/drain", fmt.Sprintf(`{"addr":%q}`, b0.srv.URL))
	if w.Code != http.StatusOK {
		t.Fatalf("drain retry: status %d: %s", w.Code, w.Body)
	}
	if f.Members().IsMember(b0.srv.URL) {
		t.Fatal("retried drain left the member behind")
	}
	if w := post(t, f.Handler(), "/admin/drain", fmt.Sprintf(`{"addr":%q}`, b0.srv.URL)); w.Code != http.StatusNotFound {
		t.Fatalf("drain of gone member: status %d, want 404", w.Code)
	}
}

// TestClusterViewRendersTopology: /cluster carries the epoch, the
// replication factor and the placement parameters a client ring replica
// needs, with backends sorted by address.
func TestClusterViewRendersTopology(t *testing.T) {
	backends := []*repBackend{newRepBackend(t), newRepBackend(t)}
	f := newRepFront(t, 2, backends...)

	req := httptest.NewRequest(http.MethodGet, "/cluster", nil)
	w := httptest.NewRecorder()
	f.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/cluster status %d", w.Code)
	}
	if got := w.Header().Get(shard.EpochHeader); got != "2" {
		t.Fatalf("epoch header = %q, want \"2\"", got)
	}
	var view shard.ClusterView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Epoch != 2 || view.Replicas != 2 || view.VNodes != 128 || view.MaxLoadFactor != 1.25 {
		t.Fatalf("view = %+v, want epoch 2, replicas 2, vnodes 128, load factor 1.25", view)
	}
	if len(view.Backends) != 2 {
		t.Fatalf("view backends = %d, want 2", len(view.Backends))
	}
	for i := 1; i < len(view.Backends); i++ {
		if view.Backends[i-1].Addr >= view.Backends[i].Addr {
			t.Fatal("cluster view backends not sorted by address")
		}
	}
	for _, b := range view.Backends {
		if !b.Healthy || b.Draining {
			t.Fatalf("fresh member %s reported unhealthy or draining", b.Addr)
		}
	}
}

// TestFrontForwardsAllowlistedRequestHeaders: a client's latency budget
// reaches every replica owner of a fanned-out quantize and the backend
// of a proxied classify; a header off the allowlist does not, and the
// replica slot is the front's stamp, never the client's.
func TestFrontForwardsAllowlistedRequestHeaders(t *testing.T) {
	var mu sync.Mutex
	var seen []http.Header
	newBackend := func() string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen = append(seen, r.Header.Clone())
			mu.Unlock()
			w.Header().Set(serve.DigestHeader, "d1g35t")
			w.Header().Set("X-Quq-Unlisted", "stays behind")
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	f := shard.New(shard.Options{
		Backends: []string{newBackend(), newBackend()}, Replicas: 2,
		ProbeInterval: -1, Retries: -1, RetryBackoff: 1,
	})
	t.Cleanup(f.Close)

	for _, path := range []string{"/v1/quantize", "/v1/classify"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"model":"ViT-S","method":"QUQ","bits":6}`))
		req.Header.Set(serve.LatencyBudgetHeader, "50ms")
		req.Header.Set(serve.ReplicaHeader, "9")
		req.Header.Set("X-Quq-Unlisted", "nope")
		w := httptest.NewRecorder()
		f.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, w.Code, w.Body)
		}
		if got := w.Header().Get(serve.DigestHeader); got != "d1g35t" {
			t.Fatalf("%s: relayed digest %q", path, got)
		}
		if got := w.Header().Get("X-Quq-Unlisted"); got != "" {
			t.Fatalf("%s: relayed an unlisted response header: %q", path, got)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("backends saw %d requests, want 3 (two quantize replicas, one classify)", len(seen))
	}
	for i, h := range seen {
		if got := h.Get(serve.LatencyBudgetHeader); got != "50ms" {
			t.Errorf("request %d: latency budget %q, want 50ms", i, got)
		}
		if got := h.Get(serve.ReplicaHeader); got != "0" && got != "1" {
			t.Errorf("request %d: replica slot %q is not the front's stamp", i, got)
		}
		if got := h.Get("X-Quq-Unlisted"); got != "" {
			t.Errorf("request %d: unlisted header forwarded: %q", i, got)
		}
	}
}
