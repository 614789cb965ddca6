package shard

// The membership admin surface: /cluster exposes the roster + ring
// parameters (the page a shard-aware client builds its local ring
// from), and the POST /admin endpoints mutate membership without a
// front-end restart. Join admits a backend and claims its arcs; leave
// drops it abruptly (replication is what covers the keys it held);
// drain re-homes its calibrated keys onto the post-departure owners
// first and only then removes it, so a planned departure loses nothing
// even at R = 1.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"quq/internal/cluster"
	"quq/internal/serve"
)

// Members exposes the membership (introspection, smoke assertions).
func (f *Front) Members() *cluster.Membership { return f.members }

// ClusterBackend is the /cluster view of one member.
type ClusterBackend struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	Inflight int64  `json:"inflight"`
}

// ClusterView is the /cluster page: everything a client needs to build
// a byte-identical local replica of the front-end's ring — the vnode
// count and load factor (placement parameters), the member list (ring
// contents), and the epoch that versions them.
type ClusterView struct {
	Epoch         uint64           `json:"epoch"`
	Replicas      int              `json:"replicas"`
	VNodes        int              `json:"vnodes"`
	MaxLoadFactor float64          `json:"max_load_factor"`
	Backends      []ClusterBackend `json:"backends"`
}

// handleCluster renders the membership view, epoch-stamped.
func (f *Front) handleCluster(w http.ResponseWriter, r *http.Request) {
	view := f.members.View()
	draining := make(map[string]bool, len(view.Members))
	for _, m := range view.Members {
		draining[m.Addr] = m.Draining
	}
	cv := ClusterView{
		Epoch:         view.Epoch,
		Replicas:      view.Replicas,
		VNodes:        vnodes,
		MaxLoadFactor: maxLoadFactor,
	}
	for _, b := range f.ring.Backends() {
		cv.Backends = append(cv.Backends, ClusterBackend{
			Addr:     b.Addr(),
			Healthy:  b.Healthy(),
			Draining: draining[b.Addr()],
			Inflight: b.Inflight(),
		})
	}
	w.Header().Set(EpochHeader, strconv.FormatUint(view.Epoch, 10))
	f.writeJSON(w, http.StatusOK, cv)
}

// adminRequest is the body of every membership mutation.
type adminRequest struct {
	Addr string `json:"addr"`
}

// adminResponse reports a membership mutation's outcome. Added and
// Moved render unconditionally: an idempotent re-join's added=false is
// the interesting part of its answer.
type adminResponse struct {
	Addr  string `json:"addr"`
	Epoch uint64 `json:"epoch"`
	Added bool   `json:"added"`
	Moved int    `json:"moved"`
}

// decodeAdmin reads and normalizes an admin body; empty addresses are
// rejected here so the membership never sees one.
func (f *Front) decodeAdmin(w http.ResponseWriter, r *http.Request) (string, bool) {
	var req adminRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		f.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return "", false
	}
	if req.Addr == "" {
		f.writeError(w, http.StatusBadRequest, errors.New("shard: admin request needs an addr"))
		return "", false
	}
	return normalizeAddr(req.Addr), true
}

// handleAdminJoin admits a backend to the ring. Idempotent: re-joining
// a member reports added=false and leaves the epoch alone. The new
// member starts healthy and earns its keep with the prober — a join of
// a dead address is ejected within failAfter probe rounds.
func (f *Front) handleAdminJoin(w http.ResponseWriter, r *http.Request) {
	addr, ok := f.decodeAdmin(w, r)
	if !ok {
		return
	}
	epoch, added := f.members.Join(addr)
	f.met.RingEpoch.Set(int64(epoch))
	f.writeJSON(w, http.StatusOK, adminResponse{Addr: addr, Epoch: epoch, Added: added})
}

// handleAdminLeave removes a backend abruptly, no handoff.
func (f *Front) handleAdminLeave(w http.ResponseWriter, r *http.Request) {
	addr, ok := f.decodeAdmin(w, r)
	if !ok {
		return
	}
	epoch, err := f.members.Leave(addr)
	if err != nil {
		f.writeError(w, http.StatusNotFound, err)
		return
	}
	f.met.RingEpoch.Set(int64(epoch))
	f.writeJSON(w, http.StatusOK, adminResponse{Addr: addr, Epoch: epoch})
}

// handleAdminDrain gracefully removes a backend: its calibrated keys
// are re-warmed on the post-departure owners (bounded by
// handoffMaxKeys and the request context) before it leaves. A failed
// handoff aborts the drain with the member intact — the caller can
// retry, or fall back to /admin/leave and eat the recalibrations.
func (f *Front) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	addr, ok := f.decodeAdmin(w, r)
	if !ok {
		return
	}
	moved, epoch, err := f.members.Drain(r.Context(), addr)
	switch {
	case errors.Is(err, cluster.ErrNotMember):
		f.writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, cluster.ErrDraining):
		f.writeError(w, http.StatusConflict, err)
		return
	case err != nil:
		f.writeError(w, http.StatusBadGateway, err)
		return
	}
	f.met.RingEpoch.Set(int64(epoch))
	f.writeJSON(w, http.StatusOK, adminResponse{Addr: addr, Epoch: epoch, Moved: moved})
}

// handoffKeys is the drain's work: list the leaving backend's registry
// entries, and warm every ready key on each owner it will have after
// the departure. Warms go through the same forward path as proxied
// quantizes (same retry policy, same replica stamping); the first
// failed warm aborts the whole drain so a "successful" drain can never
// silently shed calibrations. The key count is bounded by
// handoffMaxKeys — keys past the cap fall back on replication or
// on-demand recalibration, as Options documents.
func (f *Front) handoffKeys(ctx context.Context, addr string) (int, error) {
	var page struct {
		Entries []serve.EntryInfo `json:"entries"`
	}
	if err := f.getJSON(ctx, addr+"/models", &page); err != nil {
		return 0, fmt.Errorf("listing entries on %s: %w", addr, err)
	}
	moved := 0
	for _, e := range page.Entries {
		if !e.Ready || moved >= handoffMaxKeys {
			continue
		}
		key, err := serve.ParseKey(e.Key)
		if err != nil {
			return moved, fmt.Errorf("entry key %q on %s: %w", e.Key, addr, err)
		}
		warmed := 0
		for slot, owner := range f.ring.OwnerNSkip(key.String(), f.opts.Replicas, addr) {
			if !owner.Healthy() {
				// An ejected owner keeps its slot but cannot be warmed now;
				// it recalibrates on demand once readmitted.
				continue
			}
			if err := f.warm(ctx, owner, key, slot); err != nil {
				return moved, fmt.Errorf("re-homing %s onto %s: %w", e.Key, owner.Addr(), err)
			}
			warmed++
		}
		if warmed == 0 {
			return moved, fmt.Errorf("re-homing %s: no healthy post-departure owner", e.Key)
		}
		moved++
		f.met.Handoffs.Inc()
	}
	return moved, nil
}

// warm issues one /v1/quantize against a specific backend, stamping the
// replica slot it will occupy for the key. Warming an already-cached
// key is a cheap no-op on the backend (registry cache hit).
func (f *Front) warm(ctx context.Context, b *Backend, key serve.Key, slot int) error {
	body, err := json.Marshal(map[string]any{
		"model":  key.Config,
		"method": key.Method,
		"bits":   key.Bits,
		"regime": key.Regime.String(),
	})
	if err != nil {
		return err
	}
	resp, err := f.forward(ctx, b, "/v1/quantize", nil, body, slot, f.drawDelays())
	if err != nil {
		return err
	}
	discard(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("quantize on %s: status %d", b.Addr(), resp.StatusCode)
	}
	return nil
}
