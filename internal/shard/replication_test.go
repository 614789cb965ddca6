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
	"time"

	"quq/internal/chaos"
	"quq/internal/serve"
	"quq/internal/shard"
)

// repBackend is a fake quq-serve that records, per endpoint, which keys
// it saw and which replica slot each request was stamped with.
type repBackend struct {
	srv          *httptest.Server
	healthy      atomic.Bool
	modelsBroken atomic.Bool
	modelsGate   chan struct{} // when set, GET /models parks until it closes
	snapGate     chan struct{} // when set, GET /v1/snapshot parks until it closes
	installsOff  atomic.Bool   // POST /v1/snapshot answers 500 while set
	scrapes      atomic.Int64  // GET /models served
	snapGets     atomic.Int64  // GET /v1/snapshot served
	snapPosts    atomic.Int64  // POST /v1/snapshot installed

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
		if b.modelsGate != nil {
			<-b.modelsGate
		}
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
		b.snapGets.Add(1)
		if b.snapGate != nil {
			<-b.snapGate
		}
		e, ok := b.entry(r.URL.Query().Get("key"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		//quq:errdrop-ok test fake writing to an in-memory recorder
		_ = json.NewEncoder(w).Encode(e)
	})
	mux.HandleFunc("POST /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if b.installsOff.Load() {
			http.Error(w, "disk full", http.StatusInternalServerError)
			return
		}
		var e serve.EntryInfo
		if err := json.NewDecoder(r.Body).Decode(&e); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b.snapPosts.Add(1)
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

// newRepFront builds a replicating front over the fakes, probing
// disabled so health transitions are explicit, retry backoffs on a fake
// clock.
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
		Clock:         chaos.NewFake(),
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
		ProbeInterval: -1, Clock: chaos.NewFake(),
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

// TestReadPastReplicaSetIsUnstamped pins the read's slot rule: a
// backend is stamped with its replica slot only inside the first R of
// the key's successors. At R = 2 over three backends, with the primary
// already ejected and the second owner dead, a read fails over once to
// the third backend, which holds no slot and gets no stamp; at R = 1 no
// read is stamped.
func TestReadPastReplicaSetIsUnstamped(t *testing.T) {
	backends := []*repBackend{newRepBackend(t), newRepBackend(t), newRepBackend(t)}
	f := newRepFront(t, 2, backends...)
	addrs := byAddr(backends)

	const key = "DeiT-B/QUQ/w6a6/partial"
	body := `{"model":"DeiT-B","method":"QUQ","bits":6}`
	walk := f.Ring().OwnerN(key, 3)
	addrs[walk[0].Addr()].srv.Close()
	f.ProbeNow(context.Background())
	f.ProbeNow(context.Background()) // failAfter=2: the primary is ejected
	if walk[0].Healthy() || !walk[1].Healthy() {
		t.Fatal("probes should eject the primary alone")
	}
	addrs[walk[1].Addr()].srv.Close()

	w := post(t, f.Handler(), "/v1/classify", body)
	if w.Code != http.StatusOK {
		t.Fatalf("classify: status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(shard.BackendHeader); got != walk[2].Addr() {
		t.Fatalf("read served by %s, want the third backend %s", got, walk[2].Addr())
	}
	third := addrs[walk[2].Addr()]
	if got := third.seen(&third.classifies); len(got) != 1 || got[0] != key+"@-" {
		t.Fatalf("third backend saw %v, want one unstamped %s@-", got, key)
	}
	if got := f.Metrics().Failovers.Value(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}

	single := []*repBackend{newRepBackend(t), newRepBackend(t)}
	f = newRepFront(t, 1, single...)
	w = post(t, f.Handler(), "/v1/classify", body)
	owner, _ := f.Ring().Owner(key)
	b := byAddr(single)[owner.Addr()]
	if got := b.seen(&b.classifies); w.Code != http.StatusOK || len(got) != 1 || got[0] != key+"@-" {
		t.Fatalf("R = 1 read: status %d, owner saw %v; want one unstamped %s@-", w.Code, got, key)
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
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 4 {
		t.Fatalf("leave = %+v, want epoch 4", resp)
	}
	if w := post(t, f.Handler(), "/admin/leave", `{"addr":"127.0.0.1:9"}`); w.Code != http.StatusNotFound {
		t.Fatalf("unknown leave: status %d, want 404", w.Code)
	}
	if got := f.Metrics().RingEpoch.Value(); got != 4 {
		t.Fatalf("quq_shard_ring_epoch after an unknown leave = %d, want 4", got)
	}
	if w := post(t, f.Handler(), "/admin/join", `{}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty join: status %d, want 400", w.Code)
	}
}

// TestAdminDrainHandsOffKeys: a drain copies every one of the leaver's
// 65 ready entries onto its post-departure owner before removal — one
// snapshot GET from the drainee and one install per key, no quantize
// anywhere; not-ready entries are skipped; the member is gone afterwards.
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
	const ready = 65
	for bits := serve.MinBits; len(drainee.entries) <= ready; bits++ {
		for _, regime := range []string{"partial", "full"} {
			k := fmt.Sprintf("ViT-Nano/QUQ/w%da%d/%s", bits, bits, regime)
			drainee.entries = append(drainee.entries, serve.EntryInfo{Key: k, Ready: true})
		}
		for _, m := range []string{"BaseQ", "FQ-ViT"} {
			k := fmt.Sprintf("DeiT-T/%s/w%da%d/full", m, bits, bits)
			drainee.entries = append(drainee.entries, serve.EntryInfo{Key: k, Ready: true})
		}
	}
	drainee.entries = drainee.entries[:ready+1]
	newOwners := f.Ring().OwnerN(key, 2)[1:] // the owner's successor
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
	if resp.Moved != ready || resp.Epoch != 4 {
		t.Fatalf("drain = %+v, want %d keys moved at epoch 4", resp, ready)
	}
	heir := addrs[newOwners[0].Addr()]
	if got := drainee.snapGets.Load(); got != ready {
		t.Fatalf("snapshot GETs from the drainee = %d, want %d", got, ready)
	}
	installs := int64(0)
	for _, b := range backends {
		installs += b.snapPosts.Load()
	}
	if installs != ready || drainee.snapPosts.Load() != 0 {
		t.Fatalf("snapshot installs = %d (%d on the drainee), want %d, none on the drainee", installs, drainee.snapPosts.Load(), ready)
	}
	for _, e := range drainee.entries {
		if !e.Ready {
			continue
		}
		heirs := 0
		for _, b := range backends {
			if got, ok := b.entry(e.Key); ok && got.Ready && b != drainee {
				heirs++
			}
		}
		if heirs != 1 {
			t.Fatalf("%s is held ready by %d post-departure owners, want 1", e.Key, heirs)
		}
	}
	if e, ok := heir.entry(key); !ok || !e.Ready {
		t.Fatalf("new owner holds %+v (ok=%v), want the ready entry", e, ok)
	}
	for _, b := range backends {
		if got := b.seen(&b.quantizes); len(got) != 0 {
			t.Fatalf("%s saw quantizes %v: a drain must not recalibrate", b.srv.URL, got)
		}
	}
	if _, ok := f.Ring().Member(owner.Addr()); ok {
		t.Fatal("drained backend still a member")
	}
	if got := f.Metrics().Handoffs.Value(); got != ready {
		t.Fatalf("handoff counter = %d, want %d", got, ready)
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
	b, ok := f.Ring().Member(b0.srv.URL)
	if !ok {
		t.Fatal("failed drain removed the member")
	}
	if b.Draining() {
		t.Fatal("failed drain left the member marked draining")
	}
	if got := f.Metrics().RingEpoch.Value(); got != 2 {
		t.Fatalf("epoch after failed drain = %d, want 2 (unchanged)", got)
	}

	b0.modelsBroken.Store(false)
	w = post(t, f.Handler(), "/admin/drain", fmt.Sprintf(`{"addr":%q}`, b0.srv.URL))
	if w.Code != http.StatusOK {
		t.Fatalf("drain retry: status %d: %s", w.Code, w.Body)
	}
	if _, ok := f.Ring().Member(b0.srv.URL); ok {
		t.Fatal("retried drain left the member behind")
	}
	if w := post(t, f.Handler(), "/admin/drain", fmt.Sprintf(`{"addr":%q}`, b0.srv.URL)); w.Code != http.StatusNotFound {
		t.Fatalf("drain of gone member: status %d, want 404", w.Code)
	}
}

// TestAdminDrainCopiesBeforeLeaving: the drainee stays a member,
// marked draining, and the epoch stays put while its snapshot is being
// read; it leaves only after the copy landed, and the drain reports the
// moved key at the post-departure epoch.
func TestAdminDrainCopiesBeforeLeaving(t *testing.T) {
	b0, b1 := newRepBackend(t), newRepBackend(t)
	f := newRepFront(t, 1, b0, b1)
	const key = "ViT-S/QUQ/w6a6/partial"
	b0.entries = []serve.EntryInfo{{Key: key, Ready: true}}
	b0.snapGate = make(chan struct{})
	release := sync.OnceFunc(func() { close(b0.snapGate) })
	t.Cleanup(release)

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(t, f.Handler(), "/admin/drain", fmt.Sprintf(`{"addr":%q}`, b0.srv.URL)) }()
	for b0.snapGets.Load() == 0 {
		time.Sleep(time.Millisecond) // the handoff is now reading the snapshot
	}
	if b, ok := f.Ring().Member(b0.srv.URL); !ok || !b.Draining() {
		t.Fatalf("mid-copy drainee member=%v; want a member marked draining", ok)
	}
	if got := f.Metrics().RingEpoch.Value(); got != 2 {
		t.Fatalf("mid-copy epoch = %d, want 2", got)
	}
	if _, ok := b1.entry(key); ok {
		t.Fatal("new owner holds the key before the copy was read")
	}

	release()
	w := <-done
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
	if resp.Moved != 1 || resp.Epoch != 3 {
		t.Fatalf("drain = %+v, want 1 key moved at epoch 3", resp)
	}
	if _, ok := b1.entry(key); !ok {
		t.Fatal("new owner missing the copied key")
	}
	if _, ok := f.Ring().Member(b0.srv.URL); ok {
		t.Fatal("drained backend still a member")
	}
}

// TestAdminDrainFailedCopyKeepsMember: a snapshot install the new owner
// refuses fails the handoff; the drain aborts with the member intact,
// un-marked and the epoch unmoved, and a retry once installs work
// again moves the key and removes the member.
func TestAdminDrainFailedCopyKeepsMember(t *testing.T) {
	b0, b1 := newRepBackend(t), newRepBackend(t)
	f := newRepFront(t, 1, b0, b1)
	const key = "ViT-S/QUQ/w6a6/partial"
	b0.entries = []serve.EntryInfo{{Key: key, Ready: true}}
	body := fmt.Sprintf(`{"addr":%q}`, b0.srv.URL)

	b1.installsOff.Store(true)
	if w := post(t, f.Handler(), "/admin/drain", body); w.Code != http.StatusBadGateway {
		t.Fatalf("drain with a refused install: status %d, want 502", w.Code)
	}
	if b, ok := f.Ring().Member(b0.srv.URL); !ok || b.Draining() {
		t.Fatalf("after a failed copy member=%v; want a member not marked draining", ok)
	}
	if got := f.Metrics().RingEpoch.Value(); got != 2 {
		t.Fatalf("epoch after a failed copy = %d, want 2 (unchanged)", got)
	}
	if got := f.Metrics().Handoffs.Value(); got != 0 {
		t.Fatalf("handoff counter after a failed copy = %d, want 0", got)
	}

	b1.installsOff.Store(false)
	w := post(t, f.Handler(), "/admin/drain", body)
	if w.Code != http.StatusOK {
		t.Fatalf("drain retry: status %d: %s", w.Code, w.Body)
	}
	if _, ok := b1.entry(key); !ok {
		t.Fatal("retried drain did not copy the key")
	}
	if _, ok := f.Ring().Member(b0.srv.URL); ok {
		t.Fatal("retried drain left the member behind")
	}
	if got := f.Metrics().Handoffs.Value(); got != 1 {
		t.Fatalf("handoff counter after the retry = %d, want 1", got)
	}
}

// getCluster fetches and decodes the front's /cluster page.
func getCluster(t *testing.T, f *shard.Front) (shard.ClusterView, http.Header) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/cluster", nil)
	w := httptest.NewRecorder()
	f.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/cluster status %d", w.Code)
	}
	var view shard.ClusterView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	return view, w.Header()
}

// startParkedDrain starts a drain of b on f whose handoff parks on
// b's /models listing, and returns once the handoff is listing: the
// caller inspects the front mid-drain, then calls release and reads
// the drain's response from done.
func startParkedDrain(t *testing.T, f *shard.Front, b *repBackend) (release func(), done <-chan *httptest.ResponseRecorder) {
	t.Helper()
	b.modelsGate = make(chan struct{})
	release = sync.OnceFunc(func() { close(b.modelsGate) })
	t.Cleanup(release) // runs before b's own cleanup closes its server
	out := make(chan *httptest.ResponseRecorder, 1)
	go func() { out <- post(t, f.Handler(), "/admin/drain", fmt.Sprintf(`{"addr":%q}`, b.srv.URL)) }()
	for b.scrapes.Load() == 0 {
		time.Sleep(time.Millisecond) // the handoff is now listing b's entries
	}
	return release, out
}

// TestAdminDrainConflicts: while a drain's handoff runs, a second drain
// of the same member is a 409 and a drain of a stranger a 404; the
// first drain then completes.
func TestAdminDrainConflicts(t *testing.T) {
	b0, b1 := newRepBackend(t), newRepBackend(t)
	f := newRepFront(t, 1, b0, b1)
	release, done := startParkedDrain(t, f, b0)

	// Bounded, so a second drain that wrongly starts its own handoff
	// fails here instead of parking on the gate.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	body := fmt.Sprintf(`{"addr":%q}`, b0.srv.URL)
	req := httptest.NewRequest(http.MethodPost, "/admin/drain", strings.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	f.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusConflict {
		t.Fatalf("concurrent drain: status %d, want 409", w.Code)
	}
	if w := post(t, f.Handler(), "/admin/drain", `{"addr":"127.0.0.1:9"}`); w.Code != http.StatusNotFound {
		t.Fatalf("drain of a stranger: status %d, want 404", w.Code)
	}

	release()
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("first drain: status %d: %s", w.Code, w.Body)
	}
	if got := f.Metrics().RingEpoch.Value(); got != 3 {
		t.Fatalf("epoch after the drain = %d, want 3", got)
	}
}

// TestClusterViewMarksDrainingMember: mid-drain, /cluster lists every
// member sorted by address with the replication factor and the epoch,
// and marks only the drainee draining; once the drain completes the
// drainee is gone and nobody is marked.
func TestClusterViewMarksDrainingMember(t *testing.T) {
	backends := []*repBackend{newRepBackend(t), newRepBackend(t), newRepBackend(t)}
	f := newRepFront(t, 3, backends...)
	drainee := backends[1]
	release, done := startParkedDrain(t, f, drainee)

	view, _ := getCluster(t, f)
	if view.Epoch != 3 || view.Replicas != 3 || len(view.Backends) != 3 {
		t.Fatalf("mid-drain view = %+v, want epoch 3, replicas 3, 3 members", view)
	}
	for i, b := range view.Backends {
		if i > 0 && view.Backends[i-1].Addr >= b.Addr {
			t.Fatal("mid-drain view not sorted by address")
		}
		if want := b.Addr == drainee.srv.URL; b.Draining != want {
			t.Fatalf("member %s draining = %v, want %v", b.Addr, b.Draining, want)
		}
	}

	release()
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("drain: status %d: %s", w.Code, w.Body)
	}
	view, _ = getCluster(t, f)
	if view.Epoch != 4 || len(view.Backends) != 2 {
		t.Fatalf("post-drain view = %+v, want epoch 4, 2 members", view)
	}
	for _, b := range view.Backends {
		if b.Addr == drainee.srv.URL || b.Draining {
			t.Fatalf("post-drain member %+v: drainee listed or still marked", b)
		}
	}
}

// TestFrontReplicasFloor: a replication factor below 1 clamps to 1;
// /cluster reports the factor the front places with.
func TestFrontReplicasFloor(t *testing.T) {
	for _, tc := range []struct{ asked, want int }{{0, 1}, {-3, 1}, {2, 2}} {
		f := newRepFront(t, tc.asked, newRepBackend(t), newRepBackend(t))
		if view, _ := getCluster(t, f); view.Replicas != tc.want {
			t.Fatalf("Replicas %d: /cluster replicas = %d, want %d", tc.asked, view.Replicas, tc.want)
		}
	}
}

// TestClusterViewRendersTopology: /cluster carries the epoch, the
// replication factor and the placement parameters a client ring replica
// needs, with backends sorted by address.
func TestClusterViewRendersTopology(t *testing.T) {
	backends := []*repBackend{newRepBackend(t), newRepBackend(t)}
	f := newRepFront(t, 2, backends...)

	view, hdr := getCluster(t, f)
	if got := hdr.Get(shard.EpochHeader); got != "2" {
		t.Fatalf("epoch header = %q, want \"2\"", got)
	}
	if view.Epoch != 2 || view.Replicas != 2 || view.VNodes != 128 {
		t.Fatalf("view = %+v, want epoch 2, replicas 2, vnodes 128", view)
	}
	if len(view.Backends) != 2 {
		t.Fatalf("view backends = %d, want 2", len(view.Backends))
	}
	for i := 1; i < len(view.Backends); i++ {
		if view.Backends[i-1].Addr >= view.Backends[i].Addr {
			t.Fatal("cluster view backends not sorted by address")
		}
	}
	members := byAddr(backends)
	for _, b := range view.Backends {
		if members[b.Addr] == nil {
			t.Fatalf("cluster view lists %s, not a member", b.Addr)
		}
		if !b.Healthy || b.Draining || b.Inflight != 0 {
			t.Fatalf("fresh idle member %+v reported unhealthy, draining or loaded", b)
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
		ProbeInterval: -1, Clock: chaos.NewFake(),
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
