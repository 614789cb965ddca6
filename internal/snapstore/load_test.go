package snapstore

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"quq/internal/baselines"
	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/vit"
)

// TestLoadSkipsUnreadableFile: a file that cannot be read is not proven
// corrupt, so it stays where it is, unquarantined, and every other
// snapshot still loads; the read errors come back joined, one per file.
func TestLoadSkipsUnreadableFile(t *testing.T) {
	blob, digest, err := Encode(testKey, testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlob(testKey, blob); err != nil {
		t.Fatal(err)
	}
	// Dangling symlinks sort before and after the valid snapshot.
	dangling := []string{filepath.Join(dir, "0000.qsnap"), filepath.Join(dir, "ffff.qsnap")}
	for _, p := range dangling {
		if err := os.Symlink(filepath.Join(dir, "missing"), p); err != nil {
			t.Fatal(err)
		}
	}
	loaded, quarantined, err := s.Load()
	if len(loaded) != 1 || quarantined != 0 {
		t.Fatalf("load: %d entries, %d quarantined; want 1, 0 (err %v)", len(loaded), quarantined, err)
	}
	if loaded[0].Entry.Digest != digest {
		t.Fatalf("loaded digest %s, want %s", loaded[0].Entry.Digest, digest)
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("load error %v, want one wrapping fs.ErrNotExist", err)
	}
	if n := len(err.(interface{ Unwrap() []error }).Unwrap()); n != len(dangling) {
		t.Fatalf("load joined %d errors, want one per unreadable file (%d)", n, len(dangling))
	}
	for _, p := range dangling {
		if _, err := os.Lstat(p); err != nil {
			t.Fatalf("unreadable file moved: %v", err)
		}
		if _, err := os.Lstat(p + quarantineExt); err == nil {
			t.Fatalf("unreadable file %s was quarantined", filepath.Base(p))
		}
	}
}

// TestLoadQuarantinesOversizeFileUnread: a file larger than any snapshot
// Decode accepts is quarantined from its size alone — the restart never
// sizes a buffer from it.
func TestLoadQuarantinesOversizeFileUnread(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "big.qsnap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse: the length is metadata, no blocks are written.
	if err := f.Truncate(MaxFileBytes + 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loaded, quarantined, err := s.Load()
	runtime.ReadMemStats(&after)
	if err != nil || len(loaded) != 0 || quarantined != 1 {
		t.Fatalf("load: %d entries, %d quarantined, err %v; want 0, 1, nil", len(loaded), quarantined, err)
	}
	if _, err := os.Stat(path + quarantineExt); err != nil {
		t.Fatalf("oversize file not quarantined: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("quarantining a %d-byte file allocated %d bytes", MaxFileBytes+1, grew)
	}
}

// serialLoad is the one-file-after-another loop Store.Load replaced,
// kept as the oracle the parallel load must agree with.
func serialLoad(s *Store) (loaded []Loaded, quarantined int, err error) {
	names, err := listDir(s.dir)
	if err != nil {
		return nil, 0, err
	}
	for _, name := range names {
		if !strings.HasSuffix(name, snapExt) {
			continue
		}
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return loaded, quarantined, err
		}
		e, err := Decode(data)
		if err != nil {
			if qerr := s.Quarantine(path); qerr != nil {
				return loaded, quarantined, qerr
			}
			quarantined++
			continue
		}
		loaded = append(loaded, Loaded{Path: path, Entry: e})
	}
	return loaded, quarantined, nil
}

// oracleDir fills a fresh store with a snapshot of every served model,
// one bit-flipped snapshot, a crash-leftover temp file and a file that
// is not a snapshot at all.
func oracleDir(t *testing.T) *Store {
	t.Helper()
	models, err := servedModels()
	if err != nil {
		t.Fatal(err)
	}
	var blobs [][]byte
	for _, sm := range models {
		blob, _, err := Encode(sm.key, sm.qm)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, sm := range models {
		if err := s.WriteBlob(sm.key, blobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	flipped := append([]byte(nil), blobs[0]...)
	flipped[len(flipped)/2] ^= 0x10
	extra := map[string][]byte{
		filepath.Base(PathFor(dir, "flipped")): flipped,
		"0123456789abcdef.qsnap.tmp":           blobs[1],
		"NOTES.txt":                            []byte("not a snapshot"),
	}
	for name, b := range extra {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestLoadMatchesSerialLoad is the parallel load's differential oracle:
// against the serial loop on identical directories it returns the same
// entries in the same filename order, with the same digests, leaves the
// same files quarantined, and every entry re-encodes to the serial
// entry's bytes. check.sh runs it at -cpu 1,2,4 so one, two and four
// workers are each covered.
func TestLoadMatchesSerialLoad(t *testing.T) {
	want, wantQ, err := serialLoad(oracleDir(t))
	if err != nil {
		t.Fatal(err)
	}
	s := oracleDir(t)
	got, gotQ, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if gotQ != wantQ || gotQ != 1 {
		t.Fatalf("quarantined %d, serial loop %d; want 1", gotQ, wantQ)
	}
	if len(got) != len(want) || len(got) != 8 {
		t.Fatalf("loaded %d entries, serial loop %d; want 8", len(got), len(want))
	}
	for i := range got {
		if filepath.Base(got[i].Path) != filepath.Base(want[i].Path) {
			t.Fatalf("entry %d: %s, serial loop %s", i, filepath.Base(got[i].Path), filepath.Base(want[i].Path))
		}
		g, w := got[i].Entry, want[i].Entry
		if g.Digest != w.Digest || g.Key != w.Key || g.Config != w.Config {
			t.Fatalf("entry %d: %s %s, serial loop %s %s", i, g.Key, g.Digest, w.Key, w.Digest)
		}
		gb, _, err := Encode(g.Key, g.Model)
		if err != nil {
			t.Fatal(err)
		}
		wb, _, err := Encode(w.Key, w.Model)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("entry %d (%s) re-encodes differently from the serial loop's", i, g.Key)
		}
	}
	// The serial loop ran on its own directory: compare what each left.
	listing := func(dir string) []string {
		names, err := listDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	if g, w := listing(s.Dir()), listing(filepath.Dir(want[0].Path)); strings.Join(g, ",") != strings.Join(w, ",") {
		t.Fatalf("directory after load %v, serial loop left %v", g, w)
	}
}

// familyModels calibrates ViT-Nano and ViT-S under QUQ and FQ-ViT
// once per process and assembles both regimes of each over one weights
// node, as the registry does: the two regimes of a family carry
// byte-identical checkpoints.
var familyModels = sync.OnceValues(func() ([]servedModel, error) {
	var out []servedModel
	for _, cfg := range []vit.Config{vit.ViTNano, vit.ViTSmall} {
		m := vit.New(cfg, 99)
		stats := ptq.Collect(m, data.CalibrationSet(cfg, 2, 1), 0)
		for _, meth := range []ptq.Method{ptq.NewQUQ(), baselines.FQViT{}} {
			w := ptq.QuantizeWeights(m, stats, meth, 6)
			gemmIn := ptq.CalibrateSites(stats, vit.KindGEMMIn, meth, 6)
			acts := ptq.CalibrateSites(stats, vit.KindActivation, meth, 6)
			for _, regime := range []ptq.Regime{ptq.Partial, ptq.Full} {
				out = append(out, servedModel{cfg.Name + "/" + meth.Name() + "/w6a6/" + regime.String(), ptq.Assemble(w, regime, gemmIn, acts)})
			}
		}
	}
	return out, nil
})

// sharingDir fills a fresh store with both regimes of four families,
// two copies of a near-twin of ViT-Nano/QUQ (one weight moved by one
// ulp, under keys of their own, so their digests are valid) and one
// bit-flipped snapshot.
func sharingDir(t *testing.T) *Store {
	t.Helper()
	models, err := familyModels()
	if err != nil {
		t.Fatal(err)
	}
	nano := models[0].qm
	twin := &ptq.QuantizedModel{
		Model: nano.Model.Clone(), Bits: nano.Bits, Regime: nano.Regime, Method: nano.Method,
		Acts: nano.Acts, WeightParams: nano.WeightParams,
	}
	moved := false
	twin.Model.Params(func(name string, data []float64) {
		if !moved && name == "block00.fc1.w" {
			data[0] = math.Nextafter(data[0], math.Inf(1))
			moved = true
		}
	})
	models = append(models,
		servedModel{models[0].key + "/twin-a", twin},
		servedModel{models[0].key + "/twin-b", twin})
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var flipped []byte
	for _, sm := range models {
		blob, _, err := Encode(sm.key, sm.qm)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteBlob(sm.key, blob); err != nil {
			t.Fatal(err)
		}
		if flipped == nil {
			flipped = append([]byte(nil), blob...)
			flipped[len(flipped)/2] ^= 0x10
		}
	}
	if err := os.WriteFile(PathFor(dir, "flipped"), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLoadSharesIdenticalFamilyModels is the sharing oracle: two
// entries of one Load share a vit.Model exactly when they belong to
// one (config, method, bits) family and their checkpoints are
// byte-identical — the near-twin one ulp away gets a model of its own,
// shared only with its exact copy — and sharing changes nothing else:
// every entry re-encodes to its file, and the order, digests and
// quarantine count are the serial loop's. check.sh runs it at
// -cpu 1,2,4.
func TestLoadSharesIdenticalFamilyModels(t *testing.T) {
	want, wantQ, err := serialLoad(sharingDir(t))
	if err != nil {
		t.Fatal(err)
	}
	got, gotQ, err := sharingDir(t).Load()
	if err != nil {
		t.Fatal(err)
	}
	if gotQ != wantQ || gotQ != 1 {
		t.Fatalf("quarantined %d, serial loop %d; want 1", gotQ, wantQ)
	}
	if len(got) != len(want) || len(got) != 10 {
		t.Fatalf("loaded %d entries, serial loop %d; want 10", len(got), len(want))
	}
	type family struct {
		config, method string
		bits           int
	}
	ckpts := make([][]byte, len(got))
	distinct := map[vit.Model]bool{}
	for i, l := range got {
		w := want[i]
		if filepath.Base(l.Path) != filepath.Base(w.Path) || l.Entry.Digest != w.Entry.Digest || l.Entry.Key != w.Entry.Key {
			t.Fatalf("entry %d: %s %s, serial loop %s %s", i, filepath.Base(l.Path), l.Entry.Digest, filepath.Base(w.Path), w.Entry.Digest)
		}
		file, err := os.ReadFile(l.Path)
		if err != nil {
			t.Fatal(err)
		}
		again, _, err := Encode(l.Entry.Key, l.Entry.Model)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, file) {
			t.Fatalf("entry %d (%s) does not re-encode to its file", i, l.Entry.Key)
		}
		// The serial loop's models share nothing: their checkpoints say
		// what the pool may share.
		ckpts[i] = vit.AppendCheckpoint(nil, w.Entry.Model.Model)
		distinct[l.Entry.Model.Model] = true
	}
	fam := func(e *Entry) family { return family{e.Config, e.Model.Method, e.Model.Bits} }
	for i := range got {
		for j := i + 1; j < len(got); j++ {
			a, b := got[i].Entry, got[j].Entry
			wantShared := fam(a) == fam(b) && bytes.Equal(ckpts[i], ckpts[j])
			if shared := a.Model.Model == b.Model.Model; shared != wantShared {
				t.Errorf("%s and %s: share a model %v, want %v", a.Key, b.Key, shared, wantShared)
			}
		}
	}
	// Four families, plus the near-twin's one model.
	if len(distinct) != 5 {
		t.Fatalf("%d distinct models over %d entries, want 5", len(distinct), len(got))
	}
}

// TestDecodeDoesNotAliasInput: Store.Load reuses one read buffer per
// worker, which is safe only if nothing Decode returns points into its
// input. Every quantizer tag the codec knows is decoded, its input
// overwritten, and the entry re-encoded to the original bytes.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	cfg := vit.ViTNano
	calib := data.CalibrationSet(cfg, 1, 1)
	tags := map[string]bool{}
	for _, meth := range []ptq.Method{
		ptq.NewQUQ(), baselines.BaseQ{}, baselines.PTQ4ViT{}, baselines.APQViT{}, baselines.FQViT{}, baselines.BiScaled{},
	} {
		for _, regime := range []ptq.Regime{ptq.Partial, ptq.Full} {
			qm, err := ptq.Quantize(vit.New(cfg, 99), meth, ptq.CalibOptions{Bits: 6, Regime: regime, Images: calib})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range qm.Acts {
				tag, _, err := ptq.MarshalQuantizer(q)
				if err != nil {
					t.Fatal(err)
				}
				tags[tag] = true
			}
			key := cfg.Name + "/" + meth.Name() + "/w6a6/" + regime.String()
			blob, _, err := Encode(key, qm)
			if err != nil {
				t.Fatal(err)
			}
			buf := append([]byte(nil), blob...)
			e, err := Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = 0xa5
			}
			again, _, err := Encode(e.Key, e.Model)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, blob) {
				t.Fatalf("%s: entry changed when Decode's input was overwritten", key)
			}
		}
	}
	for _, tag := range []string{
		ptq.TagQUQ,
		"apq-affine", "biscaled", "fqvit-log2", "fqvit-ptf", "ptq4vit-softmax", "ptq4vit-gelu",
	} {
		if !tags[tag] {
			t.Errorf("no method produced quantizer tag %q; the aliasing check misses it", tag)
		}
	}
	if len(tags) != 7 {
		t.Errorf("methods produced tags %v; a new tag needs a line above", tags)
	}
}
