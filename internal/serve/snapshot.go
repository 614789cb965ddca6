package serve

import (
	"errors"
	"fmt"

	"quq/internal/snapstore"
)

// ErrSnapshotUnavailable is returned by Registry.Snapshot when the key
// has no ready, snapshottable entry; the HTTP layer maps it to 404.
var ErrSnapshotUnavailable = errors.New("serve: no snapshot for key")

// warmRestart loads every verified snapshot from the store and installs
// it as a ready entry, then opens the registry for traffic by closing
// warm. It runs on its own goroutine, joined by Drain through the builds
// WaitGroup like any calibration build.
func (r *Registry) warmRestart() {
	defer r.builds.Done()
	defer close(r.warm)
	loaded, quarantined, err := r.store.Load()
	if r.met != nil {
		r.met.SnapshotQuarantined.Add(uint64(quarantined))
		r.met.SnapshotErrors.Add(uint64(countErrors(err)))
	}
	if r.opts.SnapshotLoadHook != nil {
		r.opts.SnapshotLoadHook(len(loaded))
	}
	for _, l := range loaded {
		if !r.installLoaded(l) {
			// The payload verified but does not belong here (foreign key,
			// mismatched metadata): quarantine it like a digest failure.
			if qerr := r.store.Quarantine(l.Path); qerr == nil && r.met != nil {
				r.met.SnapshotQuarantined.Inc()
			}
		}
	}
}

// countErrors counts the failures in a Store.Load error: one per file
// it could not read or quarantine, or one for an unreadable directory.
func countErrors(err error) int {
	if err == nil {
		return 0
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		return len(joined.Unwrap())
	}
	return 1
}

// installLoaded validates one decoded snapshot against the registry's
// key space and installs it as a ready entry. It reports false when the
// snapshot is internally consistent but unusable for this registry.
func (r *Registry) installLoaded(l snapstore.Loaded) bool {
	key, err := r.entryKeyFor(l.Entry)
	if err != nil {
		return false
	}
	r.armIntPath(l.Entry)
	e := &entry{key: key, ready: make(chan struct{}), qm: l.Entry.Model, digest: l.Entry.Digest}
	e.replica.Store(-1)
	close(e.ready)
	r.mu.Lock()
	if _, exists := r.entries[key]; exists {
		r.mu.Unlock()
		return true // already resident (another snapshot won the slot)
	}
	r.entries[key] = e
	r.mu.Unlock()
	if r.met != nil {
		r.met.SnapshotLoads.Inc()
	}
	return true
}

// entryKeyFor canonicalizes and cross-checks a decoded snapshot's key
// against the payload's own metadata, so a verified-but-mislabeled file
// can never serve under the wrong selection.
func (r *Registry) entryKeyFor(e *snapstore.Entry) (Key, error) {
	key, err := ParseKey(e.Key)
	if err != nil {
		return Key{}, err
	}
	qm := e.Model
	if key.Config != e.Config || key.Bits != qm.Bits || key.Method != qm.Method || key.Regime != qm.Regime {
		return Key{}, fmt.Errorf("%w: snapshot metadata does not match key %s", ErrBadRequest, e.Key)
	}
	if key.Config != qm.Model.Config().Name {
		return Key{}, fmt.Errorf("%w: snapshot weights belong to %s, key says %s", ErrBadRequest, qm.Model.Config().Name, key.Config)
	}
	return key, nil
}

// armIntPath re-arms the integer weight path on a restored model when
// the registry is configured for it. Failure keeps the float path — the
// model still serves, and the serving grid makes the two byte-identical.
func (r *Registry) armIntPath(e *snapstore.Entry) {
	if !r.intPath.Load() || e.Model.WeightParams == nil {
		return
	}
	if err := e.Model.SetIntPath(true); err != nil && r.met != nil {
		r.met.SnapshotErrors.Inc()
	}
}

// persist commits a freshly-built entry to the snapshot store and stamps
// its content digest. Persistence failures are counted, never fatal: the
// build keeps serving from memory.
func (r *Registry) persist(e *entry) {
	if r.store == nil {
		return
	}
	blob, digest, err := snapstore.Encode(e.key.String(), e.qm)
	if err != nil {
		if r.met != nil {
			r.met.SnapshotErrors.Inc()
		}
		return
	}
	e.digest = digest
	if err := r.store.WriteBlob(e.key.String(), blob); err != nil {
		if r.met != nil {
			r.met.SnapshotErrors.Inc()
		}
		return
	}
	if r.met != nil {
		r.met.SnapshotWrites.Inc()
	}
}

// Digest returns the content address of a key's ready entry ("" if the
// key is absent, still building, or not snapshottable).
func (r *Registry) Digest(key Key) string {
	key, err := CanonicalKey(key)
	if err != nil {
		return ""
	}
	r.mu.Lock()
	e := r.entries[key]
	r.mu.Unlock()
	if e == nil {
		return ""
	}
	select {
	case <-e.ready:
		return e.digest
	default:
		return ""
	}
}

// Snapshot serializes a key's ready entry into a transferable snapshot
// file image — the payload GET /v1/snapshot serves and anti-entropy
// repair re-pushes to a divergent replica.
func (r *Registry) Snapshot(key Key) (blob []byte, digestHex string, err error) {
	key, err = CanonicalKey(key)
	if err != nil {
		return nil, "", err
	}
	r.mu.Lock()
	e := r.entries[key]
	r.mu.Unlock()
	if e == nil {
		return nil, "", ErrSnapshotUnavailable
	}
	select {
	case <-e.ready:
	default:
		return nil, "", ErrSnapshotUnavailable
	}
	if e.err != nil || e.qm == nil {
		return nil, "", ErrSnapshotUnavailable
	}
	return snapstore.Encode(key.String(), e.qm)
}

// InstallSnapshot verifies a snapshot file image and installs it as the
// key's ready entry, replacing whatever held the slot — the repair path
// anti-entropy uses to overwrite a divergent replica with the healthy
// majority's build. The snapshot is also committed to the local store so
// the repair survives the next restart. Installing a snapshot whose
// digest already matches the resident ready entry is a no-op.
func (r *Registry) InstallSnapshot(data []byte) (keyStr, digestHex string, err error) {
	se, err := snapstore.Decode(data)
	if err != nil {
		return "", "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	key, err := r.entryKeyFor(se)
	if err != nil {
		return "", "", err
	}
	if cur := r.Digest(key); cur == se.Digest {
		return key.String(), se.Digest, nil
	}
	r.armIntPath(se)
	e := &entry{key: key, ready: make(chan struct{}), qm: se.Model, digest: se.Digest}
	e.replica.Store(-1)
	close(e.ready)
	r.mu.Lock()
	r.entries[key] = e
	// The family's nodes belong to the calibration that was just
	// overruled: a sibling built later recalibrates instead of reusing
	// them, and nothing keeps the replaced weights alive.
	delete(r.families, familyKey{key.Config, key.Method, key.Bits})
	r.mu.Unlock()
	if r.store != nil {
		if werr := r.store.WriteBlob(key.String(), data); werr != nil && r.met != nil {
			r.met.SnapshotErrors.Inc()
		}
	}
	if r.met != nil {
		r.met.SnapshotInstalls.Inc()
	}
	return key.String(), se.Digest, nil
}
