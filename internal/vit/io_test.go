package vit

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"

	"quq/internal/tensor"
)

// tinyViT is the smallest valid ViT: its checkpoint is a few kilobytes,
// so truncating it at every length and fuzzing it stay cheap.
var tinyViT = Config{
	Name: "tiny", Variant: VariantViT,
	ImageSize: 4, PatchSize: 2, Channels: 1, Classes: 2,
	Dim: 4, Depth: 1, Heads: 1, MLPRatio: 1,
}

// paramSnapshot copies every parameter slice into a name-keyed map.
func paramSnapshot(m Model) map[string][]float64 {
	out := make(map[string][]float64)
	m.Params(func(name string, data []float64) {
		out[name] = append([]float64(nil), data...)
	})
	return out
}

// sameParamBits reports whether a and b hold the same parameters, bit
// for bit, by comparing their checkpoints.
func sameParamBits(a, b Model) bool {
	return bytes.Equal(AppendCheckpoint(nil, a), AppendCheckpoint(nil, b))
}

// legacyLoad is the per-element checkpoint reader the byte decoder
// replaced: one io.ReadFull per value into a name-keyed map, copied
// into the model afterwards. It sizes allocations from the header, so
// tests only hand it inputs LoadCheckpoint has already accepted.
func legacyLoad(cfg Config, r io.Reader) (Model, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	params := make(map[string][]float64, count)
	for i := uint32(0); i < count; i++ {
		var nameLen uint32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return nil, err
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, err
		}
		var dataLen uint64
		if err := binary.Read(br, binary.LittleEndian, &dataLen); err != nil {
			return nil, err
		}
		data := make([]float64, dataLen)
		buf := make([]byte, 8)
		for j := range data {
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, err
			}
			data[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		}
		params[string(nameBuf)] = data
	}
	m := New(cfg, 0)
	var loadErr error
	seen := 0
	m.Params(func(name string, dst []float64) {
		src, ok := params[name]
		if !ok || len(src) != len(dst) {
			if loadErr == nil {
				loadErr = fmt.Errorf("parameter %q missing or mis-sized", name)
			}
			return
		}
		copy(dst, src)
		seen++
	})
	if loadErr == nil && seen != len(params) {
		loadErr = fmt.Errorf("checkpoint has %d parameters, model consumed %d", len(params), seen)
	}
	return m, loadErr
}

// ckptRecord encodes one checkpoint record.
func ckptRecord(name string, data []float64) []byte {
	r := binary.LittleEndian.AppendUint32(nil, uint32(len(name)))
	r = append(r, name...)
	r = binary.LittleEndian.AppendUint64(r, uint64(len(data)))
	for _, v := range data {
		r = binary.LittleEndian.AppendUint64(r, math.Float64bits(v))
	}
	return r
}

// checkpointRecords lists m's records in Params order.
func checkpointRecords(m Model) [][]byte {
	var records [][]byte
	m.Params(func(name string, data []float64) { records = append(records, ckptRecord(name, data)) })
	return records
}

// joinRecords builds a checkpoint from records in the order given.
func joinRecords(records [][]byte) []byte {
	out := binary.LittleEndian.AppendUint32([]byte(checkpointMagic), uint32(len(records)))
	for _, r := range records {
		out = append(out, r...)
	}
	return out
}

// reversedCheckpoint writes m's records in reverse Params order.
func reversedCheckpoint(m Model) []byte {
	records := checkpointRecords(m)
	slices.Reverse(records)
	return joinRecords(records)
}

// TestSaveLoadRoundTripZoo round-trips every zoo config plus ViT-Nano
// through the checkpoint container and demands bit-identical parameters
// and a checkpoint of exactly CheckpointSize bytes.
func TestSaveLoadRoundTripZoo(t *testing.T) {
	configs := append([]Config{ViTNano}, ZooConfigs...)
	for i, cfg := range configs {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			m := New(cfg, 2024+uint64(i)*1000)
			blob := AppendCheckpoint(nil, m)
			if len(blob) != CheckpointSize(m) {
				t.Fatalf("checkpoint is %d bytes, CheckpointSize says %d", len(blob), CheckpointSize(m))
			}
			got, err := LoadCheckpoint(cfg, blob)
			if err != nil {
				t.Fatal(err)
			}
			if !sameParamBits(m, got) {
				t.Fatal("loaded parameters are not bit-identical to the saved ones")
			}
		})
	}
}

// TestAppendCheckpointAppends: the checkpoint lands after whatever dst
// already holds, and a dst with room for it is not reallocated.
func TestAppendCheckpointAppends(t *testing.T) {
	m := New(tinyViT, 3)
	want := AppendCheckpoint(nil, m)
	dst := make([]byte, 3, 3+CheckpointSize(m))
	got := AppendCheckpoint(dst, m)
	if &got[0] != &dst[0] {
		t.Fatal("AppendCheckpoint reallocated a dst with enough room")
	}
	if !bytes.Equal(got[3:], want) {
		t.Fatal("appended checkpoint differs from a fresh one")
	}
}

// TestSaveLoadForwardIdentity: a reloaded ViT-Nano must produce
// bit-identical logits, which is what the serving checkpoint path
// actually relies on.
func TestSaveLoadForwardIdentity(t *testing.T) {
	m := New(ViTNano, 99)
	got, err := LoadCheckpoint(ViTNano, AppendCheckpoint(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	img := tensor.New(ViTNano.Channels, ViTNano.ImageSize, ViTNano.ImageSize)
	for i := range img.Data() {
		img.Data()[i] = float64(i%17)/17 - 0.5
	}
	want := m.Forward(img, ForwardOpts{}).Data()
	out := got.Forward(img, ForwardOpts{}).Data()
	for j := range want {
		if out[j] != want[j] {
			t.Fatalf("logit %d: %v != %v after reload", j, out[j], want[j])
		}
	}
}

// TestSaveFileLoadFile exercises the filesystem wrappers.
func TestSaveFileLoadFile(t *testing.T) {
	m := New(ViTNano, 7)
	path := filepath.Join(t.TempDir(), "nano.ckpt")
	if err := SaveFile(m, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(ViTNano, path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameParamBits(m, got) {
		t.Fatal("parameters differ after file round trip")
	}
	if _, err := LoadFile(ViTNano, filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("LoadFile on a missing path succeeded")
	}
}

// TestLoadAcceptsAnyRecordOrder: records are matched by name, so a
// checkpoint written in reverse order loads to the same parameters, the
// same ones the per-element reader finds.
func TestLoadAcceptsAnyRecordOrder(t *testing.T) {
	for _, cfg := range []Config{tinyViT, ViTNano, SwinTiny} {
		m := New(cfg, 11)
		blob := reversedCheckpoint(m)
		got, err := LoadCheckpoint(cfg, blob)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if !sameParamBits(m, got) {
			t.Fatalf("%s: out-of-order checkpoint loaded different parameters", cfg.Name)
		}
		old, err := legacyLoad(cfg, bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s: per-element reader: %v", cfg.Name, err)
		}
		if !sameParamBits(old, got) {
			t.Fatalf("%s: byte decoder and per-element reader disagree", cfg.Name)
		}
	}
}

// TestLoadRejectsCorruptCheckpoints walks the error taxonomy: bad magic,
// truncation, architecture mismatch, and missing, duplicate, unknown,
// wrong-length and trailing records must all fail loudly rather than
// produce a silently wrong model.
func TestLoadRejectsCorruptCheckpoints(t *testing.T) {
	m := New(tinyViT, 7)
	blob := AppendCheckpoint(nil, m)
	patchW := paramSnapshot(m)["patch.w"]

	reject := func(t *testing.T, b []byte, want string) {
		t.Helper()
		_, err := LoadCheckpoint(tinyViT, b)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want one containing %q", err, want)
		}
	}
	// edited returns the checkpoint with its records passed through fn.
	edited := func(fn func([][]byte) [][]byte) []byte {
		return joinRecords(fn(checkpointRecords(m)))
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		copy(bad, "NOTAVIT0")
		reject(t, bad, "magic")
	})

	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(blob); n++ {
			if _, err := LoadCheckpoint(tinyViT, blob[:n]); err == nil {
				t.Fatalf("truncation at %d of %d bytes accepted", n, len(blob))
			}
		}
	})

	t.Run("config mismatch", func(t *testing.T) {
		// A tiny checkpoint cannot populate a ViT-Nano, nor a ViT-Nano
		// one a ViT-S or a Swin-T: parameter shapes (and for Swin, names)
		// differ.
		if _, err := LoadCheckpoint(ViTNano, blob); err == nil {
			t.Fatal("tiny checkpoint loaded into ViT-Nano")
		}
		nano := AppendCheckpoint(nil, New(ViTNano, 7))
		for _, cfg := range []Config{ViTSmall, SwinTiny} {
			if _, err := LoadCheckpoint(cfg, nano); err == nil {
				t.Fatalf("ViT-Nano checkpoint loaded into %s", cfg.Name)
			}
		}
	})

	t.Run("empty", func(t *testing.T) {
		reject(t, nil, "shorter than its header")
	})

	t.Run("missing record", func(t *testing.T) {
		reject(t, edited(func(r [][]byte) [][]byte { return r[1:] }), "model has")
	})

	t.Run("duplicate record", func(t *testing.T) {
		// patch.w twice, in place of patch.w and patch.b: the count and
		// the framing hold, the names do not.
		reject(t, edited(func(r [][]byte) [][]byte { r[1] = r[0]; return r }), "repeats parameter")
	})

	t.Run("unknown record", func(t *testing.T) {
		reject(t, edited(func(r [][]byte) [][]byte { r[0] = ckptRecord("Patch.w", patchW); return r }), "unknown parameter")
	})

	t.Run("wrong length", func(t *testing.T) {
		short := edited(func(r [][]byte) [][]byte { r[0] = ckptRecord("patch.w", patchW[1:]); return r })
		reject(t, short, "model wants")
	})

	t.Run("trailing bytes", func(t *testing.T) {
		reject(t, append(append([]byte(nil), blob...), 0), "bytes after the last")
	})
}

// hostileCheckpoints are well-magicked checkpoints whose headers claim
// far more than they carry. The per-element reader allocated 2 GiB for
// the first and 7 GiB for the second; FuzzCheckpointLoad's seeds hold
// LoadCheckpoint to the model's own allocation on both.
func hostileCheckpoints() [][]byte {
	hugeRecord := binary.LittleEndian.AppendUint32([]byte(checkpointMagic), 1)
	hugeRecord = binary.LittleEndian.AppendUint32(hugeRecord, 1)
	hugeRecord = append(hugeRecord, 'x')
	hugeRecord = binary.LittleEndian.AppendUint64(hugeRecord, 1<<28)
	hugeCount := binary.LittleEndian.AppendUint32([]byte(checkpointMagic), 1<<26)
	return [][]byte{hugeRecord, hugeCount}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, cfg := range []Config{ViTNano, SwinTiny} {
		m := New(cfg, 15)
		m2, err := LoadCheckpoint(cfg, AppendCheckpoint(nil, m))
		if err != nil {
			t.Fatalf("%s: load: %v", cfg.Name, err)
		}
		img := testImage(cfg, 16)
		if tensor.MSE(m.Forward(img, ForwardOpts{}), m2.Forward(img, ForwardOpts{})) != 0 {
			t.Fatalf("%s: loaded model disagrees with original", cfg.Name)
		}
	}
}

func TestLoadRejectsWrongConfig(t *testing.T) {
	blob := AppendCheckpoint(nil, New(ViTNano, 17))
	if _, err := LoadCheckpoint(ViTSmall, blob); err == nil {
		t.Fatal("loaded a ViT-Nano checkpoint into ViT-S")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadCheckpoint(ViTNano, []byte("not a checkpoint")); err == nil {
		t.Fatal("accepted garbage")
	}
}

// heapAllocated is the process's cumulative heap allocation in bytes.
// Unlike runtime.ReadMemStats it does not stop the world, so a fuzz
// body can read it twice per input. It is not exact: a small object is
// counted when its span is refilled, so a reading can include objects
// allocated before it began, while an allocation above 32 KiB counts at
// once.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// totalAlloc is runtime.MemStats.TotalAlloc: exact, because
// ReadMemStats flushes every per-P cache, and costly, because it stops
// the world.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// FuzzCheckpointLoad drives the checkpoint parser directly — the
// snapshot fuzzer never reaches it past the digest check. On every
// input: LoadCheckpoint never panics; it allocates no more than a
// well-formed load of the same model, whatever the header claims; an
// accepted input is one the per-element reader also accepts, with the
// same parameters; and an accepted input whose records come in Params
// order re-encodes byte for byte.
func FuzzCheckpointLoad(f *testing.F) {
	m := New(tinyViT, 5)
	blob := AppendCheckpoint(nil, m)
	before := totalAlloc()
	if _, err := LoadCheckpoint(tinyViT, blob); err != nil {
		f.Fatal(err)
	}
	// Twice a real load, plus slack for whatever the fuzzing engine
	// allocates concurrently.
	bound := 2*(totalAlloc()-before) + 256<<10

	f.Add(blob)
	f.Add(reversedCheckpoint(m))
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:len(checkpointMagic)+4])
	f.Add([]byte{})
	for _, h := range hostileCheckpoints() {
		f.Add(h)
	}
	var order []string
	m.Params(func(name string, _ []float64) { order = append(order, name) })

	f.Fuzz(func(t *testing.T, b []byte) {
		before := heapAllocated()
		got, err := LoadCheckpoint(tinyViT, b)
		if heapAllocated()-before > bound {
			// The cheap reading can carry objects allocated before this
			// input; the same load, measured exactly, decides.
			before := totalAlloc()
			//quq:errdrop-ok a repeat of the load above, whose error is handled below
			_, _ = LoadCheckpoint(tinyViT, b)
			if grew := totalAlloc() - before; grew > bound {
				t.Fatalf("a %d-byte input allocated %d bytes, bound %d", len(b), grew, bound)
			}
		}
		if err != nil {
			return
		}
		old, err := legacyLoad(tinyViT, bytes.NewReader(b))
		if err != nil {
			t.Fatalf("accepted input the per-element reader rejects: %v", err)
		}
		if !sameParamBits(old, got) {
			t.Fatal("byte decoder and per-element reader disagree")
		}
		var names []string
		count := binary.LittleEndian.Uint32(b[len(checkpointMagic):])
		if err := eachRecord(b[len(checkpointMagic)+4:], count, func(name, _ []byte) error {
			names = append(names, string(name))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if strings.Join(names, "\x00") == strings.Join(order, "\x00") && !bytes.Equal(AppendCheckpoint(nil, got), b) {
			t.Fatal("accepted in-order checkpoint does not re-encode byte for byte")
		}
	})
}

// valueOffset is where value i of parameter param sits in m's
// checkpoint.
func valueOffset(m Model, param string, i int) int {
	off, at := len(checkpointMagic)+4, -1
	m.Params(func(name string, data []float64) {
		if name == param {
			at = off + 4 + len(name) + 8 + 8*i
		}
		off += 4 + len(name) + 8 + 8*len(data)
	})
	return at
}

// matchModel is tinyViT with a +0 in patch.b and a payload-1 NaN in
// head.b, so the near-misses below have a zero and a NaN to vary.
func matchModel() Model {
	m := New(tinyViT, 5)
	m.Params(func(name string, data []float64) {
		switch name {
		case "patch.b":
			data[0] = 0
		case "head.b":
			data[0] = math.Float64frombits(0x7ff8000000000001)
		}
	})
	return m
}

// swappedCheckpoint is m's checkpoint with its first two records
// swapped: LoadCheckpoint accepts it, CheckpointMatches must not.
func swappedCheckpoint(m Model) []byte {
	records := checkpointRecords(m)
	records[0], records[1] = records[1], records[0]
	return joinRecords(records)
}

// matchSeeds are matchModel's checkpoint and its near-misses: one value
// bit flipped, +0 stored as −0, a NaN with another payload, two records
// swapped, a record renamed, the last byte cut and one byte appended.
func matchSeeds(m Model) [][]byte {
	blob := AppendCheckpoint(nil, m)
	setBits := func(param string, bits uint64) []byte {
		b := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(b[valueOffset(m, param, 0):], bits)
		return b
	}
	flipped := append([]byte(nil), blob...)
	flipped[valueOffset(m, "patch.w", 0)] ^= 1
	renamed := checkpointRecords(m)
	renamed[0] = ckptRecord("patch.W", paramSnapshot(m)["patch.w"])
	return [][]byte{
		blob,
		flipped,
		setBits("patch.b", math.Float64bits(math.Copysign(0, -1))),
		setBits("head.b", 0x7ff8000000000002),
		swappedCheckpoint(m),
		joinRecords(renamed),
		blob[:len(blob)-1],
		append(append([]byte(nil), blob...), 0),
	}
}

// TestCheckpointMatches: records in another order load the same
// parameters but do not match, and matching a ViT-Nano checkpoint
// allocates nothing like a checkpoint. FuzzCheckpointMatches' seeds
// hold the other near-misses.
func TestCheckpointMatches(t *testing.T) {
	m := matchModel()
	swapped := swappedCheckpoint(m)
	if got, err := LoadCheckpoint(tinyViT, swapped); err != nil || !sameParamBits(got, m) {
		t.Fatalf("swapped records: LoadCheckpoint err %v; want the same parameters", err)
	}
	if CheckpointMatches(m, swapped) {
		t.Fatal("swapped records match")
	}

	nano := New(ViTNano, 3)
	blob := AppendCheckpoint(nil, nano)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ok := CheckpointMatches(nano, blob)
	runtime.ReadMemStats(&after)
	if !ok {
		t.Fatal("ViT-Nano checkpoint does not match its model")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(blob))/16 {
		t.Fatalf("matching a %d-byte checkpoint allocated %d bytes", len(blob), grew)
	}
}

// FuzzCheckpointMatches is CheckpointMatches' differential target: on
// any input it never panics and answers exactly what comparing with a
// freshly built checkpoint answers.
func FuzzCheckpointMatches(f *testing.F) {
	m := matchModel()
	blob := AppendCheckpoint(nil, m)
	for _, b := range matchSeeds(m) {
		f.Add(b)
	}
	f.Add([]byte{})
	for _, h := range hostileCheckpoints() {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := CheckpointMatches(m, b), bytes.Equal(b, blob); got != want {
			t.Fatalf("CheckpointMatches = %v, bytes.Equal with the model's checkpoint = %v", got, want)
		}
	})
}
