// Package shardclient is the shard-aware client library for a quq
// fleet. A Client bootstraps from the front-end's GET /cluster page,
// builds a local replica of the consistent-hash ring from the same
// placement parameters (vnode count, member list), and routes reads
// directly to the workers that own each key — skipping the proxy hop
// on the hot path. The local ring is byte-identical to
// the server's by construction (same FNV-1a hashing, same tie-breaks),
// which the property tests pin.
//
// Routing policy mirrors the front-end's replication contract:
//
//   - Classify (a read) goes straight to the key's replica owners in
//     slot order, falling back to the proxy — never to an arbitrary
//     worker — when every owner is unreachable. Routing past the
//     replica set is the proxy's decision to make, because it is the
//     component that ejects members and counts failovers.
//   - Quantize (calibration-bearing) always goes through the proxy,
//     which fans it out to all R owners; a client writing to a single
//     worker would silently under-replicate the key.
//
// Every proxied response carries the membership epoch in
// shard.EpochHeader; the client compares it to the epoch its ring was
// built from and refreshes the view on mismatch, so elastic membership
// changes (join/drain/leave) propagate without any push channel.
package shardclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"quq/internal/serve"
	"quq/internal/shard"
)

// ProxyVia is the Via value reported when a request was served through
// the front-end proxy rather than a directly-addressed worker.
const ProxyVia = "proxy"

// ErrStaleView is wrapped into errors caused by the client's cached
// ring view disagreeing with the fleet (all supposed owners gone).
var ErrStaleView = errors.New("shardclient: cluster view is stale")

// Options configures a Client.
type Options struct {
	// HTTPClient is the transport for both worker and proxy requests.
	// Defaults to a plain &http.Client{}.
	HTTPClient *http.Client
}

// Client routes requests onto a quq shard fleet using a locally held
// replica of the front-end's ring. Safe for concurrent use.
type Client struct {
	front string
	hc    *http.Client

	mu       sync.RWMutex
	ring     *shard.Ring
	epoch    uint64
	replicas int
}

// New builds a client and performs the initial /cluster fetch; it
// fails if the front-end is unreachable or serves an unusable view.
func New(ctx context.Context, frontURL string, opts Options) (*Client, error) {
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	c := &Client{front: normalizeURL(frontURL), hc: hc}
	if err := c.Refresh(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// normalizeURL applies the same base-URL spelling rules the front-end
// applies to backend addresses.
func normalizeURL(u string) string {
	for len(u) > 0 && u[len(u)-1] == '/' {
		u = u[:len(u)-1]
	}
	if !containsScheme(u) {
		u = "http://" + u
	}
	return u
}

func containsScheme(u string) bool {
	for i := 0; i+2 < len(u); i++ {
		if u[i] == ':' && u[i+1] == '/' && u[i+2] == '/' {
			return true
		}
	}
	return false
}

// Refresh re-fetches the /cluster view and rebuilds the local ring.
// The swap is atomic: requests either see the old complete view or the
// new complete view, never a half-built ring.
func (c *Client) Refresh(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.front+"/cluster", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("shardclient: fetching cluster view: %w", err)
	}
	var view shard.ClusterView
	if err := decodeBody(resp, &view); err != nil {
		return fmt.Errorf("shardclient: cluster view: %w", err)
	}
	// The count is the front's constant; any other value is a front this
	// client cannot place like, or a page that would make Ring.Add
	// allocate vnodes points per member.
	if view.VNodes != shard.VNodes {
		return fmt.Errorf("shardclient: cluster view has vnodes=%d, want %d; cannot replicate the ring", view.VNodes, shard.VNodes)
	}
	ring := shard.NewRing(shard.VNodes)
	for _, cb := range view.Backends {
		b, _ := ring.Add(cb.Addr)
		b.SetHealthy(cb.Healthy)
	}
	c.mu.Lock()
	c.ring, c.epoch, c.replicas = ring, view.Epoch, view.Replicas
	c.mu.Unlock()
	return nil
}

// Epoch returns the membership epoch the local ring was built from.
func (c *Client) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// Replicas returns the fleet's replication factor.
func (c *Client) Replicas() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.replicas
}

// view snapshots the routing state for one request.
func (c *Client) view() (*shard.Ring, uint64, int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring, c.epoch, c.replicas
}

// Owner returns the primary owner's address for a registry key string,
// from the local ring. The property tests compare this against the
// server ring for byte-identical placement.
func (c *Client) Owner(key string) (string, bool) {
	ring, _, _ := c.view()
	b, ok := ring.Owner(key)
	if !ok {
		return "", false
	}
	return b.Addr(), true
}

// OwnerSet returns the key's full replica set, slot-ordered, as
// addresses.
func (c *Client) OwnerSet(key string) []string {
	ring, _, replicas := c.view()
	owners := ring.OwnerN(key, max(replicas, 1))
	addrs := make([]string, len(owners))
	for i, b := range owners {
		addrs[i] = b.Addr()
	}
	return addrs
}

// Classification is one image's classify outcome.
type Classification struct {
	ArgMax int       `json:"argmax"`
	Logits []float64 `json:"logits"`
}

// ClassifyResult is a classify response plus where it was served.
type ClassifyResult struct {
	Key     string           `json:"key"`
	Results []Classification `json:"results"`
	// Via is the worker address that served the request, or ProxyVia
	// when the request fell back to the front-end.
	Via string `json:"-"`
}

// QuantizeResult is a quantize response plus where it was served.
type QuantizeResult struct {
	Key     string  `json:"key"`
	Cached  bool    `json:"cached"`
	BuildMS float64 `json:"build_ms"`
	Via     string  `json:"-"`
}

// modelSelector is the wire shape both endpoints share.
type modelSelector struct {
	Model  string      `json:"model"`
	Method string      `json:"method"`
	Bits   int         `json:"bits"`
	Regime string      `json:"regime"`
	Images [][]float64 `json:"images,omitempty"`
}

// Classify routes a classify request directly to the key's replica
// owners in slot order, stamping each attempt with its replica slot.
// A worker connection failure marks that owner locally unhealthy (the
// mark lasts until the next Refresh) and moves to the next slot; when
// the whole replica set is unreachable the request falls back to the
// proxy, whose failover policy takes over. Any HTTP response, whatever
// its status, is final — backpressure (429) in particular must reach
// the caller, not trigger a stampede of re-sends.
func (c *Client) Classify(ctx context.Context, model, method string, bits int, regime string, images [][]float64) (*ClassifyResult, error) {
	key, err := serve.KeyFromWire(model, method, bits, regime)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(modelSelector{Model: model, Method: method, Bits: bits, Regime: regime, Images: images})
	if err != nil {
		return nil, err
	}
	ring, _, replicas := c.view()
	for slot, b := range ring.OwnerN(key.String(), max(replicas, 1)) {
		if !b.Healthy() {
			continue
		}
		resp, err := c.post(ctx, b.Addr()+"/v1/classify", body, slot)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Locally observed failure: stop routing to this owner until
			// the next view refresh. The front-end's prober owns the real
			// eject/readmit decision; this is just the client not re-dialing
			// a dead socket on every request.
			b.SetHealthy(false)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// The worker is alive but not serving yet — typically a
			// restarted owner still warm-loading its snapshot dir. Its
			// replica sibling (or the proxy) can answer now, so move on
			// WITHOUT marking the owner unhealthy: it will be back in
			// seconds and demoting it would steer reads away long after
			// the warm restart completes.
			//quq:errdrop-ok best-effort drain for connection reuse; the 503 status is the whole verdict
			_, _ = io.Copy(io.Discard, resp.Body)
			//quq:errdrop-ok response deliberately abandoned in favor of the next replica
			_ = resp.Body.Close()
			continue
		}
		var out ClassifyResult
		if err := decodeBody(resp, &out); err != nil {
			return nil, fmt.Errorf("classify on %s: %w", b.Addr(), err)
		}
		out.Via = b.Addr()
		return &out, nil
	}
	// Every owner unreachable (or the view so stale it lists none):
	// the proxy is the arbiter of routing beyond the replica set.
	var out ClassifyResult
	if err := c.viaProxy(ctx, "/v1/classify", body, &out); err != nil {
		return nil, err
	}
	out.Via = ProxyVia
	return &out, nil
}

// Quantize warms a key through the front-end proxy, which fans the
// build out to all R replica owners. Deliberately never direct: a
// client-side single-worker quantize would under-replicate the key.
func (c *Client) Quantize(ctx context.Context, model, method string, bits int, regime string) (*QuantizeResult, error) {
	if _, err := serve.KeyFromWire(model, method, bits, regime); err != nil {
		return nil, err
	}
	body, err := json.Marshal(modelSelector{Model: model, Method: method, Bits: bits, Regime: regime})
	if err != nil {
		return nil, err
	}
	var out QuantizeResult
	if err := c.viaProxy(ctx, "/v1/quantize", body, &out); err != nil {
		return nil, err
	}
	out.Via = ProxyVia
	return &out, nil
}

// viaProxy posts through the front-end and observes the epoch header
// on the way back: a mismatch against the local view triggers a
// refresh so the next request routes on current membership.
func (c *Client) viaProxy(ctx context.Context, path string, body []byte, out any) error {
	resp, err := c.post(ctx, c.front+path, body, -1)
	if err != nil {
		return fmt.Errorf("shardclient: proxy %s: %w", path, err)
	}
	c.observeEpoch(ctx, resp.Header.Get(shard.EpochHeader))
	return decodeBody(resp, out)
}

// observeEpoch refreshes the cached view when a proxied response
// carries a different membership epoch. The refresh is best-effort:
// the response in hand is already valid, and a failed refresh leaves
// the old view in place for the next mismatch to retry.
func (c *Client) observeEpoch(ctx context.Context, header string) {
	if header == "" {
		return
	}
	seen, err := strconv.ParseUint(header, 10, 64)
	if err != nil {
		return
	}
	c.mu.RLock()
	current := c.epoch
	c.mu.RUnlock()
	if seen == current {
		return
	}
	//quq:errdrop-ok best-effort staleness repair; the triggering response is valid and the old view survives for the next mismatch to retry
	_ = c.Refresh(ctx)
}

// post issues one JSON POST; slot >= 0 stamps the replica slot the
// target occupies for the key (advisory observability on the worker).
func (c *Client) post(ctx context.Context, url string, body []byte, slot int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if slot >= 0 {
		req.Header.Set(serve.ReplicaHeader, strconv.Itoa(slot))
	}
	return c.hc.Do(req)
}

// decodeBody reads, closes and decodes a response body; non-200
// statuses surface the server's error string.
func decodeBody(resp *http.Response, out any) error {
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
		}
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.Unmarshal(body, out)
}
