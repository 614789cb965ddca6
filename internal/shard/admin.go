package shard

// The membership admin surface: /cluster exposes the roster + ring
// parameters (the page a shard-aware client builds its local ring
// from), and the POST /admin endpoints mutate membership without a
// front-end restart. The ring is the roster: its members are the fleet
// and its epoch counts their effective changes. Join admits a backend
// and claims its arcs; leave drops it abruptly (replication is what
// covers the keys it held); drain copies its calibrated keys' snapshots
// onto the post-departure owners first and only then removes it, so a
// planned departure loses nothing and recalibrates nothing, even at
// R = 1.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"quq/internal/serve"
)

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

// handleCluster renders the roster, epoch-stamped.
func (f *Front) handleCluster(w http.ResponseWriter, r *http.Request) {
	epoch, members := f.ring.Roster()
	cv := ClusterView{
		Epoch:         epoch,
		Replicas:      f.opts.Replicas,
		VNodes:        vnodes,
		MaxLoadFactor: maxLoadFactor,
	}
	for _, b := range members {
		cv.Backends = append(cv.Backends, ClusterBackend{
			Addr:     b.Addr(),
			Healthy:  b.Healthy(),
			Draining: b.Draining(),
			Inflight: b.Inflight(),
		})
	}
	w.Header().Set(EpochHeader, strconv.FormatUint(epoch, 10))
	f.writeJSON(w, http.StatusOK, cv)
}

// join admits addr to the ring, returning the resulting epoch and
// whether the roster changed.
func (f *Front) join(addr string) (uint64, bool) {
	f.adminMu.Lock()
	defer f.adminMu.Unlock()
	_, added := f.ring.Add(addr)
	if added {
		f.met.Joins.Inc()
		f.met.Inflight.Set(addr, 0)
	}
	return f.topologyChanged(), added
}

// leave removes addr from the ring, returning the resulting epoch and
// false (epoch unmoved) when addr was not a member.
func (f *Front) leave(addr string) (uint64, bool) {
	f.adminMu.Lock()
	defer f.adminMu.Unlock()
	if !f.ring.Remove(addr) {
		return f.ring.Epoch(), false
	}
	f.met.Leaves.Inc()
	f.met.Inflight.Delete(addr)
	return f.topologyChanged(), true
}

// topologyChanged brings the topology gauges level with the ring and
// returns its epoch. Callers hold adminMu, so the gauges and the epoch
// an admin answer reports are those of that mutation.
func (f *Front) topologyChanged() uint64 {
	epoch, members := f.ring.Roster()
	f.met.RingEpoch.Set(int64(epoch))
	f.met.RingBackends.Set(int64(len(members)))
	f.met.Healthy.Set(int64(f.ring.HealthyCount()))
	return epoch
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
// rejected here so the ring never sees one.
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

// notMember is the 404 of a leave or drain naming a stranger.
func (f *Front) notMember(w http.ResponseWriter, addr string) {
	f.writeError(w, http.StatusNotFound, fmt.Errorf("shard: %s is not a member", addr))
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
	epoch, added := f.join(addr)
	f.writeJSON(w, http.StatusOK, adminResponse{Addr: addr, Epoch: epoch, Added: added})
}

// handleAdminLeave removes a backend abruptly, no handoff.
func (f *Front) handleAdminLeave(w http.ResponseWriter, r *http.Request) {
	addr, ok := f.decodeAdmin(w, r)
	if !ok {
		return
	}
	epoch, ok := f.leave(addr)
	if !ok {
		f.notMember(w, addr)
		return
	}
	f.writeJSON(w, http.StatusOK, adminResponse{Addr: addr, Epoch: epoch})
}

// handleAdminDrain gracefully removes a backend: it is marked draining
// (it keeps serving), its calibrated keys' snapshots are copied onto
// the post-departure owners (bounded by handoffMaxKeys and the request
// context), and only then does it leave. A failed handoff aborts the
// drain with the member intact and un-marked — the caller can retry, or
// fall back to /admin/leave and eat the recalibrations. A second drain
// of a member already draining is a 409.
func (f *Front) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	addr, ok := f.decodeAdmin(w, r)
	if !ok {
		return
	}
	b, ok := f.ring.Member(addr)
	if !ok {
		f.notMember(w, addr)
		return
	}
	if !b.draining.CompareAndSwap(false, true) {
		f.writeError(w, http.StatusConflict, fmt.Errorf("shard: drain of %s already in progress", addr))
		return
	}
	moved, err := f.handoffKeys(r.Context(), b)
	if err != nil {
		b.draining.Store(false)
		f.writeError(w, http.StatusBadGateway, fmt.Errorf("shard: drain handoff for %s: %w", addr, err))
		return
	}
	epoch, ok := f.leave(addr)
	if !ok {
		// An abrupt leave overtook the handoff.
		f.notMember(w, addr)
		return
	}
	f.writeJSON(w, http.StatusOK, adminResponse{Addr: addr, Epoch: epoch, Moved: moved})
}

// handoffKeys is the drain's work: list the leaving backend's registry
// entries, and copy every ready key's snapshot from it onto each
// healthy owner the key will have after the departure — the same
// verified transfer anti-entropy repairs with, so nothing recalibrates.
// The first failed copy aborts the whole drain so a "successful" drain
// can never silently shed calibrations. The key count is bounded by
// handoffMaxKeys — keys past the cap fall back on replication or
// on-demand recalibration.
func (f *Front) handoffKeys(ctx context.Context, from *Backend) (int, error) {
	var page struct {
		Entries []serve.EntryInfo `json:"entries"`
	}
	if err := f.getJSON(ctx, from.addr+"/models", &page); err != nil {
		return 0, fmt.Errorf("listing entries on %s: %w", from.addr, err)
	}
	moved := 0
	for _, e := range page.Entries {
		if !e.Ready || moved >= handoffMaxKeys {
			continue
		}
		copied := 0
		for _, owner := range f.ring.OwnerNSkip(e.Key, f.opts.Replicas, from.addr) {
			if !owner.Healthy() {
				// An ejected owner keeps its slot but cannot take a copy
				// now; it recalibrates on demand once readmitted.
				continue
			}
			if err := f.repair(ctx, e.Key, from, owner); err != nil {
				return moved, fmt.Errorf("re-homing %s onto %s: %w", e.Key, owner.addr, err)
			}
			copied++
		}
		if copied == 0 {
			return moved, fmt.Errorf("re-homing %s: no healthy post-departure owner", e.Key)
		}
		moved++
		f.met.Handoffs.Inc()
	}
	return moved, nil
}
