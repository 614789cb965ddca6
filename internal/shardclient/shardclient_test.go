package shardclient_test

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

	"quq/internal/chaos"
	"quq/internal/serve"
	"quq/internal/shard"
	"quq/internal/shardclient"
)

// fakeWorker is a minimal quq-serve stand-in recording each classify
// as "key@replica". Flipping warming on makes it answer 503 with
// Retry-After — the warm-restart-in-progress signal a restarted
// quq-serve emits while loading its snapshot directory.
type fakeWorker struct {
	srv     *httptest.Server
	warming atomic.Bool

	mu          sync.Mutex
	classifies  []string
	warmingHits int
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	w := &fakeWorker{}
	mux := http.NewServeMux()
	handle := func(rw http.ResponseWriter, r *http.Request, quantize bool) {
		if w.warming.Load() {
			w.mu.Lock()
			w.warmingHits++
			w.mu.Unlock()
			rw.Header().Set("Retry-After", "1")
			rw.WriteHeader(http.StatusServiceUnavailable)
			return
		}
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
		if !quantize {
			w.mu.Lock()
			w.classifies = append(w.classifies, key.String()+"@"+replica)
			w.mu.Unlock()
		}
		rw.Header().Set("Content-Type", "application/json")
		if quantize {
			fmt.Fprintf(rw, `{"key":%q,"cached":false,"build_ms":1}`, key)
			return
		}
		fmt.Fprintf(rw, `{"key":%q,"results":[{"argmax":7,"logits":[0.1,0.9]}]}`, key)
	}
	mux.HandleFunc("POST /v1/classify", func(rw http.ResponseWriter, r *http.Request) { handle(rw, r, false) })
	mux.HandleFunc("POST /v1/quantize", func(rw http.ResponseWriter, r *http.Request) { handle(rw, r, true) })
	mux.HandleFunc("GET /healthz", func(http.ResponseWriter, *http.Request) {})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

func (w *fakeWorker) seen() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.classifies...)
}

func (w *fakeWorker) warmHits() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.warmingHits
}

// newFleet builds workers, a front over them (probing off, retry
// backoffs on a fake clock) serving real HTTP, and a client
// bootstrapped from its /cluster page.
func newFleet(t *testing.T, replicas, n int) ([]*fakeWorker, *shard.Front, *httptest.Server, *shardclient.Client) {
	t.Helper()
	workers := make([]*fakeWorker, n)
	addrs := make([]string, n)
	for i := range workers {
		workers[i] = newFakeWorker(t)
		addrs[i] = workers[i].srv.URL
	}
	f := shard.New(shard.Options{
		Backends:      addrs,
		Replicas:      replicas,
		ProbeInterval: -1,
		Clock:         chaos.NewFake(),
	})
	t.Cleanup(f.Close)
	front := httptest.NewServer(f.Handler())
	t.Cleanup(front.Close)
	c, err := shardclient.New(context.Background(), front.URL, shardclient.Options{})
	if err != nil {
		t.Fatalf("shardclient.New: %v", err)
	}
	return workers, f, front, c
}

func workerByAddr(workers []*fakeWorker) map[string]*fakeWorker {
	m := make(map[string]*fakeWorker, len(workers))
	for _, w := range workers {
		m[w.srv.URL] = w
	}
	return m
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("ViT-%d/QUQ/w6a6/partial", i)
	}
	return keys
}

// TestClientRingMatchesServer is the ownership property test: the
// client's locally built ring must agree with the server's, byte for
// byte, on the primary owner AND the full slot-ordered replica set of
// every key. This is what makes direct routing safe — a single
// disagreement sends a request to a worker that never calibrated the
// key.
func TestClientRingMatchesServer(t *testing.T) {
	_, f, _, c := newFleet(t, 2, 4)

	if got, want := c.Epoch(), uint64(f.Metrics().RingEpoch.Value()); got != want {
		t.Fatalf("client epoch = %d, server epoch = %d", got, want)
	}
	if got := c.Replicas(); got != 2 {
		t.Fatalf("client replicas = %d, want 2", got)
	}
	for _, key := range testKeys(2000) {
		want, ok := f.Ring().Owner(key)
		if !ok {
			t.Fatal("server ring empty")
		}
		got, ok := c.Owner(key)
		if !ok || got != want.Addr() {
			t.Fatalf("key %q: client owner %q, server owner %q", key, got, want.Addr())
		}
		serverSet := f.Ring().OwnerN(key, 2)
		clientSet := c.OwnerSet(key)
		if len(clientSet) != len(serverSet) {
			t.Fatalf("key %q: client set %v vs server set of %d", key, clientSet, len(serverSet))
		}
		for slot := range serverSet {
			if clientSet[slot] != serverSet[slot].Addr() {
				t.Fatalf("key %q slot %d: client %q, server %q", key, slot, clientSet[slot], serverSet[slot].Addr())
			}
		}
	}
}

// TestClientClassifiesDirect: a classify lands on the key's primary
// owner without touching the proxy, stamped with replica slot 0.
func TestClientClassifiesDirect(t *testing.T) {
	workers, f, _, c := newFleet(t, 2, 3)
	byAddr := workerByAddr(workers)

	const model = "ViT-S"
	key, _ := serve.KeyFromWire(model, "QUQ", 6, "")
	owners := f.Ring().OwnerN(key.String(), 2)

	res, err := c.Classify(context.Background(), model, "QUQ", 6, "", nil)
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if res.Via != owners[0].Addr() {
		t.Fatalf("served via %q, want primary owner %q", res.Via, owners[0].Addr())
	}
	if len(res.Results) != 1 || res.Results[0].ArgMax != 7 {
		t.Fatalf("results = %+v, want the fake's argmax 7", res.Results)
	}
	got := byAddr[owners[0].Addr()].seen()
	if len(got) != 1 || !strings.HasSuffix(got[0], "@0") {
		t.Fatalf("primary saw %v, want one request stamped @0", got)
	}
	for addr, w := range byAddr {
		if addr != owners[0].Addr() && len(w.seen()) != 0 {
			t.Fatalf("non-primary %s saw classifies %v", addr, w.seen())
		}
	}
}

// TestClientFailsOverAcrossReplicaSlots: when the primary owner dies,
// the client walks to the surviving replica — the worker that holds
// the calibration — keeping the slot stamp honest, and remembers the
// failure so the next request skips the corpse without re-dialing it.
func TestClientFailsOverAcrossReplicaSlots(t *testing.T) {
	workers, f, _, c := newFleet(t, 2, 3)
	byAddr := workerByAddr(workers)

	const model = "DeiT-B"
	key, _ := serve.KeyFromWire(model, "QUQ", 6, "")
	owners := f.Ring().OwnerN(key.String(), 2)
	byAddr[owners[0].Addr()].srv.Close() // kill the primary

	for i := 0; i < 2; i++ {
		res, err := c.Classify(context.Background(), model, "QUQ", 6, "", nil)
		if err != nil {
			t.Fatalf("classify %d: %v", i, err)
		}
		if res.Via != owners[1].Addr() {
			t.Fatalf("classify %d served via %q, want surviving replica %q", i, res.Via, owners[1].Addr())
		}
	}
	got := byAddr[owners[1].Addr()].seen()
	if len(got) != 2 || !strings.HasSuffix(got[0], "@1") || !strings.HasSuffix(got[1], "@1") {
		t.Fatalf("replica saw %v, want two requests stamped @1", got)
	}
}

// TestClientSkipsWarmingOwnerWithoutDemotion: a 503 from an owner that
// is warm-loading its snapshot directory routes the read to the replica
// sibling — retryable, never an error — and the warming owner is NOT
// marked unhealthy: every subsequent classify probes it first, so
// routing snaps back the moment the warm restart completes.
func TestClientSkipsWarmingOwnerWithoutDemotion(t *testing.T) {
	workers, f, _, c := newFleet(t, 2, 3)
	byAddr := workerByAddr(workers)

	const model = "ViT-L"
	key, _ := serve.KeyFromWire(model, "QUQ", 6, "")
	owners := f.Ring().OwnerN(key.String(), 2)
	primary := byAddr[owners[0].Addr()]
	primary.warming.Store(true)

	for i := 0; i < 2; i++ {
		res, err := c.Classify(context.Background(), model, "QUQ", 6, "", nil)
		if err != nil {
			t.Fatalf("classify %d during warm restart: %v", i, err)
		}
		if res.Via != owners[1].Addr() {
			t.Fatalf("classify %d served via %q, want replica sibling %q while the primary warms", i, res.Via, owners[1].Addr())
		}
	}
	if got := primary.warmHits(); got != 2 {
		t.Fatalf("warming owner saw %d probes, want 2: a 503 must not demote the owner", got)
	}

	primary.warming.Store(false)
	res, err := c.Classify(context.Background(), model, "QUQ", 6, "", nil)
	if err != nil {
		t.Fatalf("classify after warm restart: %v", err)
	}
	if res.Via != owners[0].Addr() {
		t.Fatalf("served via %q, want recovered primary %q", res.Via, owners[0].Addr())
	}
	if seen := primary.seen(); len(seen) != 1 || !strings.HasSuffix(seen[0], "@0") {
		t.Fatalf("recovered primary saw %v, want one request stamped @0", seen)
	}
}

// TestClientFallsBackToProxy: with the whole replica set unreachable
// the client does NOT guess a third worker itself — routing past the
// set is the proxy's call — it falls back to the front-end, which
// ejects the corpses and serves from a survivor.
func TestClientFallsBackToProxy(t *testing.T) {
	workers, f, _, c := newFleet(t, 2, 3)
	byAddr := workerByAddr(workers)

	const model = "Swin-T"
	key, _ := serve.KeyFromWire(model, "QUQ", 6, "")
	owners := f.Ring().OwnerN(key.String(), 2)
	byAddr[owners[0].Addr()].srv.Close()
	byAddr[owners[1].Addr()].srv.Close()

	res, err := c.Classify(context.Background(), model, "QUQ", 6, "", nil)
	if err != nil {
		t.Fatalf("classify with dead replica set: %v", err)
	}
	if res.Via != shardclient.ProxyVia {
		t.Fatalf("served via %q, want %q", res.Via, shardclient.ProxyVia)
	}
	// The front walked past the dead replica set to the survivor, which
	// serves outside any replica slot (no stamp).
	var survivor *fakeWorker
	for addr, w := range byAddr {
		if addr != owners[0].Addr() && addr != owners[1].Addr() {
			survivor = w
		}
	}
	got := survivor.seen()
	if len(got) != 1 || !strings.HasSuffix(got[0], "@-") {
		t.Fatalf("survivor saw %v, want one unstamped request", got)
	}
}

// TestClientRefreshesOnEpochChange: a membership change on the front
// (admin join) bumps the epoch; the client notices the stale stamp on
// its next proxied response, refreshes, and from then on agrees with
// the server ring about the newcomer's keys.
func TestClientRefreshesOnEpochChange(t *testing.T) {
	_, f, front, c := newFleet(t, 1, 2)
	before := c.Epoch()

	late := newFakeWorker(t)
	body := strings.NewReader(fmt.Sprintf(`{"addr":%q}`, late.srv.URL))
	resp, err := http.Post(front.URL+"/admin/join", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if want := uint64(f.Metrics().RingEpoch.Value()); want != before+1 {
		t.Fatalf("join moved epoch to %d, want %d", want, before+1)
	}

	// A proxied request carries the new epoch; the client must refresh.
	if _, err := c.Quantize(context.Background(), "ViT-S", "QUQ", 6, ""); err != nil {
		t.Fatalf("quantize: %v", err)
	}
	if got := c.Epoch(); got != before+1 {
		t.Fatalf("client epoch after proxied response = %d, want %d", got, before+1)
	}
	for _, key := range testKeys(500) {
		want, _ := f.Ring().Owner(key)
		if got, _ := c.Owner(key); got != want.Addr() {
			t.Fatalf("post-refresh disagreement on %q: client %q, server %q", key, got, want.Addr())
		}
	}
}

// TestClientRejectsGarbageSelectors: enum spelling is checked client-
// side, before hashing or any network traffic, with the same rules the
// registry applies.
func TestClientRejectsGarbageSelectors(t *testing.T) {
	_, _, _, c := newFleet(t, 1, 1)
	if _, err := c.Classify(context.Background(), "ViT-S", "NoSuchMethod", 6, "", nil); err == nil {
		t.Fatal("classify with unknown method must fail client-side")
	}
	if _, err := c.Quantize(context.Background(), "ViT-S", "QUQ", 2, ""); err == nil {
		t.Fatal("quantize with unsupported bits must fail client-side")
	}
}

// TestNewFailsOnUnreachableFront: construction performs the bootstrap
// fetch and surfaces its failure instead of returning a client with an
// empty ring.
func TestNewFailsOnUnreachableFront(t *testing.T) {
	if _, err := shardclient.New(context.Background(), "http://127.0.0.1:1", shardclient.Options{}); err == nil {
		t.Fatal("New against a dead front must fail")
	}
}

// TestRefreshRejectsForeignVNodes: a /cluster page whose vnode count is
// not the front's constant is refused before any ring is built — a
// client cannot place like such a front, and a huge count would make
// Ring.Add allocate that many points per member.
func TestRefreshRejectsForeignVNodes(t *testing.T) {
	for _, vnodes := range []int{0, -1, 64, 1 << 40} {
		front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"epoch":1,"replicas":1,"vnodes":%d,"backends":[{"addr":"http://127.0.0.1:1","healthy":true}]}`, vnodes)
		}))
		_, err := shardclient.New(context.Background(), front.URL, shardclient.Options{})
		front.Close()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("vnodes=%d", vnodes)) {
			t.Fatalf("vnodes=%d: New = %v, want a vnodes refusal", vnodes, err)
		}
	}
}
