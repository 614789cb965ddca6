package shard

import (
	"errors"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"quq/internal/check"
)

// ErrNoBackends is returned when no healthy backend can serve a key.
var ErrNoBackends = errors.New("shard: no healthy backends")

// Backend is one quq-serve instance on the ring. Health, load and the
// drain mark are atomics: the prober, the proxy path, the admin surface
// and introspection read them concurrently.
type Backend struct {
	addr       string // normalized base URL, e.g. "http://127.0.0.1:8642"
	healthy    atomic.Bool
	draining   atomic.Bool // an admin drain is handing off its keys
	inflight   atomic.Int64
	probeFails atomic.Int32 // consecutive failed probes while admitted
	probeOKs   atomic.Int32 // consecutive healthy probes while ejected
}

// Addr returns the backend's base URL.
func (b *Backend) Addr() string { return b.addr }

// Healthy reports whether the backend is currently admitted.
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// Draining reports whether an admin drain of the backend is running.
func (b *Backend) Draining() bool { return b.draining.Load() }

// Inflight returns the number of requests currently proxied to the
// backend.
func (b *Backend) Inflight() int64 { return b.inflight.Load() }

// SetHealthy overrides the health bit. On a serving front-end the
// prober owns health; the setter exists for client-side ring replicas,
// which mirror the /cluster view's snapshot and record their own
// observed connection failures until the next refresh.
func (b *Backend) SetHealthy(v bool) { b.healthy.Store(v) }

// Ring is a consistent-hash ring with virtual nodes, and the front's
// roster: its members are the fleet. Placement depends only on the
// backend address set and the key bytes — FNV-1a hashing, no map
// iteration, no randomness, no time, no load — so every front-end
// process computes identical ownership. All methods are safe for
// concurrent use.
type Ring struct {
	vnodes int

	mu       sync.RWMutex
	epoch    uint64 // effective Adds and Removes so far
	backends map[string]*Backend
	points   []ringPoint // sorted by (hash, addr, replica)
}

// ringPoint is one virtual node.
type ringPoint struct {
	hash    uint64
	replica int
	b       *Backend
}

// NewRing builds an empty ring with the given virtual-node count per
// backend. vnodes must be positive: a silent default here would let a
// ring and a shardclient replica of it disagree on placement, so a
// non-positive count is a programmer error, not a tunable.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		panic(check.Invariantf("shard: NewRing vnodes must be positive, got %d", vnodes))
	}
	return &Ring{vnodes: vnodes, backends: map[string]*Backend{}}
}

// hashString is FNV-1a 64 — stable across processes and Go versions,
// unlike maphash.
func hashString(s string) uint64 {
	h := fnv.New64a()
	//quq:errdrop-ok hash.Hash.Write is documented to never return an error
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// Add inserts a backend (healthy, idle), claims its virtual-node arcs
// and bumps the epoch. Re-adding an existing address is a no-op
// returning the existing backend and added = false.
func (r *Ring) Add(addr string) (b *Backend, added bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.backends[addr]; ok {
		return b, false
	}
	r.epoch++
	b = &Backend{addr: addr}
	b.healthy.Store(true)
	r.backends[addr] = b
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash:    hashString(addr + "#" + strconv.Itoa(i)),
			replica: i,
			b:       b,
		})
	}
	r.sortLocked()
	return b, true
}

// Remove deletes a backend and bumps the epoch; only the arcs it owned
// are remapped (each moves to its ring successor). It reports false,
// epoch unmoved, for an address that is not a member.
func (r *Ring) Remove(addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.backends[addr]; !ok {
		return false
	}
	r.epoch++
	delete(r.backends, addr)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.b.addr != addr {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return true
}

// Epoch returns the membership epoch: the count of effective Adds and
// Removes. A re-Add or the Remove of a stranger never moves it, so a
// client holding a view stamped with the current epoch is not forced
// through a spurious refresh.
func (r *Ring) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// Member returns the backend at addr, if it is on the ring.
func (r *Ring) Member(addr string) (*Backend, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.backends[addr]
	return b, ok
}

// sortLocked orders the points; hash ties (vanishingly rare with 64-bit
// FNV) break on address then replica so ownership stays deterministic
// regardless of Add order.
func (r *Ring) sortLocked() {
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		if a.b.addr != b.b.addr {
			return a.b.addr < b.b.addr
		}
		return a.replica < b.replica
	})
}

// Owner returns the primary owner of a key — the first virtual node at
// or after the key's hash — ignoring health and load. This is the pure
// consistent-hash placement the remapping guarantees are stated over.
func (r *Ring) Owner(key string) (*Backend, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil, false
	}
	return r.points[r.startLocked(key)].b, true
}

// startLocked finds the index of the first point at or after the key's
// hash position (wrapping).
func (r *Ring) startLocked(key string) int {
	h := hashString(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// OwnerN returns the key's replica set: the first n distinct backends
// on the ring-successor walk, in placement order, health-agnostic.
// Index i in the result IS the key's replica-i slot — a deliberately
// pure function of membership and key bytes, so the slot identity never
// shifts when a member flaps. Transient health belongs to the caller
// (skip unhealthy entries but keep their slots); only membership
// changes — join, leave, drain — remap the set. Fewer than n members
// yields a shorter set, never duplicates.
func (r *Ring) OwnerN(key string, n int) []*Backend {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	n = min(n, len(r.backends)) // the walk ends once every member is seen
	start := r.startLocked(key)
	owners := make([]*Backend, 0, n)
	seen := make(map[*Backend]bool, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.b] {
			seen[p.b] = true
			owners = append(owners, p.b)
		}
	}
	return owners
}

// Route returns the backend that serves a key right now and its
// position on the key's successor walk (position i < R is the key's
// replica-i slot): the first member that is healthy and not excluded.
// Excluded backends are ones the caller already failed against this
// request. Load plays no part: a busy owner keeps its keys, because a
// successor would calibrate them afresh, and shedding load is the
// backend's 429 backpressure's job, not the router's.
func (r *Ring) Route(key string, exclude map[*Backend]bool) (*Backend, int, error) {
	for i, b := range r.OwnerN(key, math.MaxInt) {
		if !exclude[b] && b.Healthy() {
			return b, i, nil
		}
	}
	return nil, -1, ErrNoBackends
}

// Backends snapshots the ring membership sorted by address.
func (r *Ring) Backends() []*Backend {
	_, list := r.Roster()
	return list
}

// Roster snapshots the epoch and the members it numbers, sorted by
// address, under one lock: the pair a client ring replica is built from.
func (r *Ring) Roster() (uint64, []*Backend) {
	r.mu.RLock()
	epoch := r.epoch
	list := make([]*Backend, 0, len(r.backends))
	// Map order is irrelevant here: the snapshot is sorted below.
	for _, b := range r.backends {
		list = append(list, b)
	}
	r.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].addr < list[j].addr })
	return epoch, list
}

// HealthyCount returns the number of admitted backends.
func (r *Ring) HealthyCount() int {
	n := 0
	for _, b := range r.Backends() {
		if b.Healthy() {
			n++
		}
	}
	return n
}
