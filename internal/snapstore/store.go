package snapstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"quq/internal/vit"
)

const (
	// snapExt is the extension of a committed snapshot file.
	snapExt = ".qsnap"
	// tmpExt marks an in-progress write; anything carrying it at store
	// open time is a crash leftover and is swept.
	tmpExt = ".tmp"
	// quarantineExt marks a snapshot whose digest or payload failed
	// verification. Quarantined files are kept for post-mortem but never
	// loaded again.
	quarantineExt = ".quarantined"
)

// Store is a directory of snapshot files, one per registry key, named by
// the key's content address so any key maps to exactly one path.
type Store struct {
	dir string
	// committed counts the snapshot files dir held at Open.
	committed int
}

// Open prepares dir (creating it if needed) and sweeps temp files left
// behind by crashed writes, so repeated crash loops cannot fill the
// disk. It returns the number of temp files removed.
func Open(dir string) (*Store, int, error) {
	if dir == "" {
		return nil, 0, fmt.Errorf("snapstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("snapstore: creating %s: %w", dir, err)
	}
	names, err := listDir(dir)
	if err != nil {
		return nil, 0, err
	}
	s := &Store{dir: dir}
	swept := 0
	for _, name := range names {
		if strings.HasSuffix(name, snapExt) {
			s.committed++
		}
		if !strings.HasSuffix(name, tmpExt) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return nil, swept, fmt.Errorf("snapstore: sweeping %s: %w", name, err)
		}
		swept++
	}
	return s, swept, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Committed returns how many committed snapshot files the directory
// held when it was opened; with none, Load has nothing to load.
func (s *Store) Committed() int { return s.committed }

// PathFor returns the committed snapshot path a key maps to under dir.
// Exported as a function (not just a method) so the chaos harness can
// target a specific key's file for corruption without opening the store.
func PathFor(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:8])+snapExt)
}

// WriteBlob atomically commits an encoded snapshot for key: write to a
// temp file, fsync, close, then rename over the final path. A crash at
// any point leaves either the old committed file or a swept-at-open temp
// file — never a torn snapshot.
func (s *Store) WriteBlob(key string, blob []byte) error {
	final := PathFor(s.dir, key)
	tmp := final + tmpExt
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("snapstore: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(blob); err != nil {
		//quq:errdrop-ok already on the write error path; the write error is the one worth reporting
		f.Close()
		//quq:errdrop-ok best-effort cleanup of a failed temp; Open's sweep is the backstop
		os.Remove(tmp)
		return fmt.Errorf("snapstore: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		//quq:errdrop-ok already on the sync error path
		f.Close()
		//quq:errdrop-ok best-effort cleanup of a failed temp; Open's sweep is the backstop
		os.Remove(tmp)
		return fmt.Errorf("snapstore: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		//quq:errdrop-ok best-effort cleanup of a failed temp; Open's sweep is the backstop
		os.Remove(tmp)
		return fmt.Errorf("snapstore: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		//quq:errdrop-ok best-effort cleanup of a failed temp; Open's sweep is the backstop
		os.Remove(tmp)
		return fmt.Errorf("snapstore: committing %s: %w", final, err)
	}
	return nil
}

// Loaded is one successfully verified and decoded snapshot. Entries
// from one Load may share their Model.Model (see Load): a restored
// vit.Model is read-only, as a ptq.Weights model is.
type Loaded struct {
	Path  string
	Entry *Entry
}

// Load verifies and decodes every committed snapshot in the store and
// returns them in sorted filename order. The files are spread over
// min(GOMAXPROCS, files) workers, each reading into one buffer it
// reuses (Decode's result never aliases its input); a single pass then
// merges the results in filename order, so callers see the same entries
// in the same order as a one-file-after-another load.
//
// Both regimes of a (config, method, bits) family carry the same
// weights, so Load decodes each family's checkpoint once: the first
// worker to reach a family decodes its model, and a later file of the
// family whose checkpoint bytes equal that model's bit for bit
// (vit.CheckpointMatches) waits for the decode and shares the model
// instead of building its own. A checkpoint that differs in any bit
// decodes a model of its own, which later files of the family are
// compared against too. Sharing changes no entry's bytes: each still
// re-encodes to the file it came from.
//
// A file that fails verification or decoding, or is larger than
// MaxFileBytes, is quarantined in place (renamed, kept for post-mortem)
// and counted — a corrupt snapshot costs a recalibration, never a
// crash. A file that cannot be read is not proven corrupt: it is left
// where it is and skipped, and its error is returned joined with any
// others once everything else has loaded.
func (s *Store) Load() (loaded []Loaded, quarantined int, err error) {
	names, err := listDir(s.dir)
	if err != nil {
		return nil, 0, err
	}
	var paths []string
	for _, name := range names {
		if strings.HasSuffix(name, snapExt) {
			paths = append(paths, filepath.Join(s.dir, name))
		}
	}
	results := make([]loadResult, len(paths))
	pool := &modelPool{families: make(map[familyKey][]*pooledModel)}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(paths)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := int(next.Add(1) - 1); i < len(paths); i = int(next.Add(1) - 1) {
				results[i], buf = loadFile(paths[i], buf, pool)
			}
		}()
	}
	wg.Wait()

	var errs []error
	for i, r := range results {
		switch {
		case r.readErr != nil:
			errs = append(errs, r.readErr)
		case r.entry == nil:
			if qerr := s.Quarantine(paths[i]); qerr != nil {
				errs = append(errs, qerr)
				continue
			}
			quarantined++
		default:
			loaded = append(loaded, Loaded{Path: paths[i], Entry: r.entry})
		}
	}
	return loaded, quarantined, errors.Join(errs...)
}

// loadResult is one file's outcome: a read error, a decoded entry, or
// neither (the file is to be quarantined).
type loadResult struct {
	entry   *Entry
	readErr error
}

// loadFile reads path into buf, growing it only when the file is larger
// than any before it, and decodes it with its model drawn from pool.
// It returns the buffer for the worker's next file.
func loadFile(path string, buf []byte, pool *modelPool) (loadResult, []byte) {
	f, err := os.Open(path)
	if err != nil {
		return loadResult{readErr: fmt.Errorf("snapstore: reading %s: %w", filepath.Base(path), err)}, buf
	}
	//quq:errdrop-ok read-only file; a close error loses nothing already read
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return loadResult{readErr: fmt.Errorf("snapstore: reading %s: %w", filepath.Base(path), err)}, buf
	}
	size := fi.Size()
	if size > MaxFileBytes {
		return loadResult{}, buf
	}
	if int64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	data := buf[:size]
	if _, err := io.ReadFull(f, data); err != nil {
		return loadResult{readErr: fmt.Errorf("snapstore: reading %s: %w", filepath.Base(path), err)}, buf
	}
	e, err := decode(data, pool)
	if err != nil {
		return loadResult{}, buf
	}
	return loadResult{entry: e}, buf
}

// familyKey names the snapshots whose checkpoints may be shared: both
// regimes of one (config, method, bits) selection.
type familyKey struct {
	config, method string
	bits           uint32
}

// modelPool holds the models one Load has decoded, by family, so the
// workers decode each distinct checkpoint once.
type modelPool struct {
	mu       sync.Mutex
	families map[familyKey][]*pooledModel
}

// pooledModel is one decoded checkpoint of a family. model is set, nil
// if the decode failed, before done closes.
type pooledModel struct {
	done  chan struct{}
	model vit.Model
}

// model returns the vit.Model for ckpt: a pooled model of the family
// whose checkpoint is ckpt bit for bit, else one decoded here and
// pooled for the family's later files. A nil pool always decodes.
//
// A worker waits only on models other workers are decoding, and only
// before it has pooled a slot of its own; a decoder waits on nothing
// once its slot is pooled. No cycle of waits can form.
func (p *modelPool) model(fk familyKey, cfg vit.Config, ckpt []byte) (vit.Model, error) {
	if p == nil {
		return vit.LoadCheckpoint(cfg, ckpt)
	}
	compared := 0
	p.mu.Lock()
	for pending := p.families[fk][compared:]; len(pending) > 0; pending = p.families[fk][compared:] {
		p.mu.Unlock()
		for _, pm := range pending {
			<-pm.done
			if pm.model != nil && vit.CheckpointMatches(pm.model, ckpt) {
				return pm.model, nil
			}
		}
		compared += len(pending)
		p.mu.Lock()
	}
	pm := &pooledModel{done: make(chan struct{})}
	p.families[fk] = append(p.families[fk], pm)
	p.mu.Unlock()
	m, err := vit.LoadCheckpoint(cfg, ckpt)
	pm.model = m
	close(pm.done)
	return m, err
}

// Quarantine renames a failed snapshot aside so it is never loaded
// again but stays on disk for inspection.
func (s *Store) Quarantine(path string) error {
	//quq:fsync-ok quarantine moves an already-committed (or already-corrupt) file aside; the rename carries no new data to sync
	if err := os.Rename(path, path+quarantineExt); err != nil {
		return fmt.Errorf("snapstore: quarantining %s: %w", filepath.Base(path), err)
	}
	return nil
}

// listDir returns dir's entry names sorted, so every pass over the
// store is deterministic.
func listDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("snapstore: reading %s: %w", dir, err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}
