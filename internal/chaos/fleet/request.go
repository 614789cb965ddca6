package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"quq/internal/serve"
	"quq/internal/shard"
)

// client carries every request the harness and the smokes send. Keep-
// alives are off: a pooled connection to a backend that died and came
// back on the same port surfaces as a broken pipe mid-request, which
// would make outcomes depend on connection-pool state instead of on the
// script — and an idle pool would outlive Fleet.Close.
var client = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// Reply is the client-side record of one answered request.
type Reply struct {
	Status int
	Header http.Header
	Body   []byte // verbatim response bytes
}

// Do sends one request to a fleet member — the front (Fleet.Base) or a
// worker directly (Backend.URL) — and reads the whole answer.
// A non-nil body is marshalled as JSON; header adds request headers. A
// transport-level error (client disconnected, connection refused) is
// returned as err with no Reply; any HTTP status is a Reply.
func Do(ctx context.Context, method, url string, body any, header http.Header) (Reply, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return Reply{}, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return Reply{}, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return Reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return Reply{}, err
	}
	return Reply{Status: resp.StatusCode, Header: resp.Header, Body: raw}, nil
}

// JSON decodes a 200 reply into out; any other status is an error
// carrying the body.
func (r Reply) JSON(out any) error {
	if r.Status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.Status, bytes.TrimSpace(r.Body))
	}
	return json.Unmarshal(r.Body, out)
}

// ServedBy is the host of the worker that answered a proxied request.
func (r Reply) ServedBy() string { return hostOf(r.Header.Get(shard.BackendHeader)) }

// Classified is the decoded body of a classify reply.
type Classified struct {
	Key     string `json:"key"`
	Results []struct {
		ArgMax int       `json:"argmax"`
		Logits []float64 `json:"logits"`
	} `json:"results"`
}

// Classified decodes a 200 classify reply that must carry n results.
func (r Reply) Classified(n int) (Classified, error) {
	var out Classified
	if err := r.JSON(&out); err != nil {
		return out, err
	}
	if len(out.Results) != n {
		return out, fmt.Errorf("%d results, want %d", len(out.Results), n)
	}
	return out, nil
}

// Models decodes a 200 /models reply, indexing the registry entries by
// key — how a caller observes one worker's resident state and digests.
func (r Reply) Models() (map[string]serve.EntryInfo, error) {
	var page struct {
		Entries []serve.EntryInfo `json:"entries"`
	}
	if err := r.JSON(&page); err != nil {
		return nil, err
	}
	out := make(map[string]serve.EntryInfo, len(page.Entries))
	for _, e := range page.Entries {
		out[e.Key] = e
	}
	return out, nil
}

// Selection is one registry-key choice on the wire.
type Selection struct {
	Model  string `json:"model"`
	Method string `json:"method"`
	Bits   int    `json:"bits"`
	Regime string `json:"regime,omitempty"`
}

// Key canonicalizes the selection the way the front and the workers do.
func (s Selection) Key() (string, error) {
	k, err := serve.KeyFromWire(s.Model, s.Method, s.Bits, s.Regime)
	if err != nil {
		return "", err
	}
	return k.String(), nil
}

// ClassifyBody attaches one image to a selection.
func ClassifyBody(sel Selection, img []float64) map[string]any {
	return map[string]any{
		"model": sel.Model, "method": sel.Method, "bits": sel.Bits, "regime": sel.Regime,
		"images": [][]float64{img},
	}
}
