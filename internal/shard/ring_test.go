package shard

import (
	"fmt"
	"testing"
)

// testKeys generates a deterministic registry-key-shaped corpus.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("ViT-%d/QUQ/w6a6/partial", i)
	}
	return keys
}

func ownerMap(r *Ring, keys []string) map[string]string {
	owners := make(map[string]string, len(keys))
	for _, k := range keys {
		b, ok := r.Owner(k)
		if !ok {
			panic("ring has no backends")
		}
		owners[k] = b.Addr()
	}
	return owners
}

// TestRingOwnerDeterministic: identical key -> identical backend across
// independently built rings, regardless of Add order. This is what lets
// two quq-shard processes (or a restarted one) agree on placement with
// no coordination.
func TestRingOwnerDeterministic(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	a := NewRing(128, 0)
	for _, addr := range addrs {
		a.Add(addr)
	}
	b := NewRing(128, 0)
	for i := range addrs {
		b.Add(addrs[len(addrs)-1-i]) // reverse order
	}
	keys := testKeys(2000)
	oa, ob := ownerMap(a, keys), ownerMap(b, keys)
	for _, k := range keys {
		if oa[k] != ob[k] {
			t.Fatalf("key %q owned by %s in one ring, %s in the other", k, oa[k], ob[k])
		}
	}
}

// TestRingRemappingOnAdd: adding one backend to N must move only ~1/(N+1)
// of the keyspace, and every moved key must move TO the new backend
// (consistent hashing moves only the arcs the newcomer claims).
func TestRingRemappingOnAdd(t *testing.T) {
	const n = 3
	r := NewRing(128, 0)
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("http://backend-%d:86", i))
	}
	keys := testKeys(4000)
	before := ownerMap(r, keys)

	newcomer := "http://backend-new:86"
	r.Add(newcomer)
	after := ownerMap(r, keys)

	moved := 0
	for _, k := range keys {
		if before[k] != after[k] {
			moved++
			if after[k] != newcomer {
				t.Fatalf("key %q moved %s -> %s, not to the new backend", k, before[k], after[k])
			}
		}
	}
	frac := float64(moved) / float64(len(keys))
	// Ideal is 1/(n+1) = 0.25; allow vnode-variance slack.
	if want, slack := 1.0/(n+1), 0.10; frac > want+slack {
		t.Fatalf("adding one backend moved %.1f%% of keys; want <= %.1f%%", 100*frac, 100*(want+slack))
	}
	if moved == 0 {
		t.Fatal("adding a backend moved nothing; ring is not partitioning")
	}
}

// TestRingRemappingOnRemove: removing one backend must move exactly the
// keys it owned (each to a survivor) and leave every other key in place.
func TestRingRemappingOnRemove(t *testing.T) {
	const n = 4
	r := NewRing(128, 0)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("http://backend-%d:86", i)
		r.Add(addrs[i])
	}
	keys := testKeys(4000)
	before := ownerMap(r, keys)

	victim := addrs[1]
	r.Remove(victim)
	after := ownerMap(r, keys)

	moved := 0
	for _, k := range keys {
		switch {
		case before[k] == victim:
			moved++
			if after[k] == victim {
				t.Fatalf("key %q still owned by removed backend", k)
			}
		case before[k] != after[k]:
			t.Fatalf("key %q moved %s -> %s although its owner survived", k, before[k], after[k])
		}
	}
	frac := float64(moved) / float64(len(keys))
	if want, slack := 1.0/n, 0.10; frac > want+slack {
		t.Fatalf("removed backend owned %.1f%% of keys; want ~%.1f%%", 100*frac, 100*want)
	}
}

// TestRingSpreadsKeys: with vnodes, no backend owns a grossly
// disproportionate share.
func TestRingSpreadsKeys(t *testing.T) {
	const n = 3
	r := NewRing(128, 0)
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("http://backend-%d:86", i))
	}
	counts := map[string]int{}
	keys := testKeys(6000)
	for _, k := range keys {
		b, _ := r.Owner(k)
		counts[b.Addr()]++
	}
	for addr, c := range counts {
		frac := float64(c) / float64(len(keys))
		if frac < 0.15 || frac > 0.55 {
			t.Fatalf("backend %s owns %.1f%% of keys; want roughly 1/3", addr, 100*frac)
		}
	}
	if len(counts) != n {
		t.Fatalf("only %d of %d backends own keys", len(counts), n)
	}
}

// TestRingPickHealthAndFailover: Pick skips unhealthy backends and
// honors the exclude set; with everything down it reports ErrNoBackends.
func TestRingPickHealthAndFailover(t *testing.T) {
	r := NewRing(64, 0)
	for i := 0; i < 3; i++ {
		r.Add(fmt.Sprintf("http://backend-%d:86", i))
	}
	key := "ViT-S/QUQ/w6a6/partial"
	owner, _ := r.Owner(key)
	if picked, err := r.Pick(key, nil); err != nil || picked != owner {
		t.Fatalf("healthy Pick = %v, %v; want the owner %s", picked, err, owner.Addr())
	}

	owner.healthy.Store(false)
	second, err := r.Pick(key, nil)
	if err != nil || second == owner {
		t.Fatalf("Pick with unhealthy owner = %v, %v; want a successor", second, err)
	}

	// Excluding the successor too walks further around the ring.
	third, err := r.Pick(key, map[*Backend]bool{second: true})
	if err != nil || third == owner || third == second {
		t.Fatalf("Pick excluding successor = %v, %v; want the third backend", third, err)
	}

	owner.healthy.Store(true)
	if picked, _ := r.Pick(key, nil); picked != owner {
		t.Fatal("readmitted owner did not get its arc back")
	}

	for _, b := range r.Backends() {
		b.healthy.Store(false)
	}
	if _, err := r.Pick(key, nil); err == nil {
		t.Fatal("Pick with all backends down must fail")
	}
}

// TestRingBoundedLoad: a backend far above the fleet-average load spills
// its keys to a successor; once it drains, placement snaps back.
func TestRingBoundedLoad(t *testing.T) {
	r := NewRing(64, 1.25)
	for i := 0; i < 3; i++ {
		r.Add(fmt.Sprintf("http://backend-%d:86", i))
	}
	key := "DeiT-B/QUQ/w8a8/full"
	owner, _ := r.Owner(key)

	owner.inflight.Store(100)
	spilled, err := r.Pick(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if spilled == owner {
		t.Fatal("overloaded owner was not spilled")
	}

	owner.inflight.Store(0)
	back, _ := r.Pick(key, nil)
	if back != owner {
		t.Fatal("drained owner did not get its arc back")
	}

	// With load bounding disabled the overloaded owner keeps its keys.
	u := NewRing(64, 0)
	for i := 0; i < 3; i++ {
		u.Add(fmt.Sprintf("http://backend-%d:86", i))
	}
	uo, _ := u.Owner(key)
	uo.inflight.Store(100)
	if picked, _ := u.Pick(key, nil); picked != uo {
		t.Fatal("unbounded ring must ignore load")
	}
}

// TestNewRingRejectsNonPositiveVNodes: a vnode count of zero would let
// two rings built from the same view silently disagree on placement, so
// construction rejects it outright instead of papering over it with a
// default.
func TestNewRingRejectsNonPositiveVNodes(t *testing.T) {
	for _, vnodes := range []int{0, -1, -128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRing(%d, 0) did not panic", vnodes)
				}
			}()
			NewRing(vnodes, 0)
		}()
	}
}

// TestRingAddIdempotent: re-adding a member must return the existing
// backend, report no change, leave the epoch alone and claim no
// additional virtual nodes — double-inserted vnodes would double the
// member's keyspace share and desynchronize any ring replica built from
// the membership view.
func TestRingAddIdempotent(t *testing.T) {
	r := NewRing(64, 0)
	first, added := r.Add("http://backend-0:86")
	if !added {
		t.Fatal("first Add reported no change")
	}
	r.Add("http://backend-1:86")
	points := r.Points()
	if points != 2*64 {
		t.Fatalf("points = %d, want %d", points, 2*64)
	}
	again, added := r.Add("http://backend-0:86")
	if again != first || added {
		t.Fatalf("re-Add = %p, %v; want the existing %p, false", again, added, first)
	}
	if got := r.Points(); got != points {
		t.Fatalf("re-Add grew the ring: %d -> %d points", points, got)
	}
	if n := len(r.Backends()); n != 2 {
		t.Fatalf("backends = %d, want 2", n)
	}
	if e := r.Epoch(); e != 2 {
		t.Fatalf("epoch after two joins and a re-join = %d, want 2", e)
	}
}

// TestRingEpochCountsEffectiveChanges: every Add or Remove that changes
// the member set bumps the epoch exactly once; a re-Add or the Remove
// of a stranger reports no change and leaves it alone. Roster pairs the
// epoch with the members it numbers.
func TestRingEpochCountsEffectiveChanges(t *testing.T) {
	r := NewRing(8, 0)
	if e := r.Epoch(); e != 0 {
		t.Fatalf("fresh epoch = %d, want 0", e)
	}
	for _, a := range []string{"c", "a", "b"} {
		r.Add(a)
	}
	if !r.Remove("a") {
		t.Fatal("Remove(a) reported no change")
	}
	if r.Remove("a") {
		t.Fatal("second Remove(a) reported a change")
	}
	if _, ok := r.Member("a"); ok {
		t.Fatal("removed backend still a member")
	}
	epoch, members := r.Roster()
	if epoch != 4 || len(members) != 2 || members[0].Addr() != "b" || members[1].Addr() != "c" {
		t.Fatalf("roster = %d, %v; want epoch 4 over [b c]", epoch, members)
	}
	if got := r.Points(); got != 2*8 {
		t.Fatalf("points = %d, want %d", got, 2*8)
	}
}

// TestRingOwnerN: the replica walk yields distinct backends in
// successor order — owner 0 is Owner(key); the set is a pure function
// of membership, so an unhealthy member keeps its slot (callers skip
// it but never renumber); the skip variant previews post-departure
// ownership.
func TestRingOwnerN(t *testing.T) {
	r := NewRing(64, 0)
	addrs := make([]string, 4)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("http://backend-%d:86", i)
		r.Add(addrs[i])
	}
	for _, key := range testKeys(200) {
		owners := r.OwnerN(key, 2)
		if len(owners) != 2 {
			t.Fatalf("OwnerN(%q, 2) = %d owners", key, len(owners))
		}
		if owners[0] == owners[1] {
			t.Fatalf("OwnerN(%q, 2) returned a duplicate backend", key)
		}
		if primary, _ := r.Owner(key); owners[0] != primary {
			t.Fatalf("OwnerN(%q)[0] = %s, Owner = %s", key, owners[0].Addr(), primary.Addr())
		}
	}

	key := "ViT-S/QUQ/w6a6/partial"
	all := r.OwnerN(key, len(addrs)+3)
	if len(all) != len(addrs) {
		t.Fatalf("OwnerN over-asked = %d owners, want %d", len(all), len(addrs))
	}
	all[0].healthy.Store(false)
	stable := r.OwnerN(key, 2)
	if len(stable) != 2 || stable[0] != all[0] || stable[1] != all[1] {
		t.Fatal("transient unhealth renumbered the replica slots")
	}
	all[0].healthy.Store(true)

	skipped := r.OwnerNSkip(key, 2, all[0].Addr())
	if len(skipped) != 2 || skipped[0] != all[1] || skipped[1] != all[2] {
		t.Fatal("OwnerNSkip did not preview the post-departure owners")
	}
	if got := r.OwnerN(key, 0); got != nil {
		t.Fatalf("OwnerN(key, 0) = %v, want nil", got)
	}
}
