package snapstore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"quq/internal/baselines"
	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/vit"
)

// testModel calibrates one cheap ViT-Nano QUQ model, the fixture every
// codec test encodes.
func testModel(t *testing.T) *ptq.QuantizedModel {
	t.Helper()
	cfg := vit.ViTNano
	m := vit.New(cfg, 99)
	calib := data.CalibrationSet(cfg, 2, 1)
	qm, err := ptq.Quantize(m, ptq.NewQUQ(), ptq.CalibOptions{Bits: 6, Regime: ptq.Partial, Images: calib})
	if err != nil {
		t.Fatal(err)
	}
	return qm
}

const testKey = "ViT-Nano/QUQ/w6a6/partial"

func TestSnapshotRoundtrip(t *testing.T) {
	qm := testModel(t)
	blob, digest, err := Encode(testKey, qm)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if e.Key != testKey {
		t.Fatalf("key %q, want %q", e.Key, testKey)
	}
	if e.Config != "ViT-Nano" {
		t.Fatalf("config %q, want ViT-Nano", e.Config)
	}
	if e.Digest != digest {
		t.Fatalf("decoded digest %s, want %s", e.Digest, digest)
	}
	got := e.Model
	if got.Bits != qm.Bits || got.Regime != qm.Regime || got.Method != qm.Method {
		t.Fatalf("metadata mismatch: got %d/%v/%s want %d/%v/%s",
			got.Bits, got.Regime, got.Method, qm.Bits, qm.Regime, qm.Method)
	}
	if len(got.Acts) != len(qm.Acts) {
		t.Fatalf("decoded %d activation quantizers, want %d", len(got.Acts), len(qm.Acts))
	}
	if (got.WeightParams == nil) != (qm.WeightParams == nil) {
		t.Fatalf("weight-params presence diverged")
	}

	// The decoded model must answer byte-identically to the original.
	img := data.Images(vit.ViTNano, 1, 7)[0]
	want := qm.Forward(img).Data()
	have := got.Forward(img).Data()
	if len(want) != len(have) {
		t.Fatalf("logit length %d, want %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("logit %d diverged: %v vs %v", i, have[i], want[i])
		}
	}

	// Canonical encoding: re-encoding the decoded model reproduces the
	// file image bit-for-bit — the property anti-entropy digest
	// comparison rests on.
	blob2, digest2, err := Encode(testKey, got)
	if err != nil {
		t.Fatal(err)
	}
	if digest2 != digest || !bytes.Equal(blob, blob2) {
		t.Fatalf("re-encode is not canonical: digest %s vs %s", digest2, digest)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	qm := testModel(t)
	blob, _, err := Encode(testKey, qm)
	if err != nil {
		t.Fatal(err)
	}
	flip := append([]byte(nil), blob...)
	flip[len(flip)-1] ^= 0x40 // payload bit flip
	if _, err := Decode(flip); err == nil {
		t.Fatal("decode accepted a bit-flipped payload")
	}
	if _, err := Decode(blob[:len(blob)/2]); err == nil {
		t.Fatal("decode accepted a truncated file")
	}
	short := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(short[44:52], uint64(len(blob))) // lie about payload length
	if _, err := Decode(short); err == nil {
		t.Fatal("decode accepted a payload-length mismatch")
	}
	badVersion := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(badVersion[8:12], 9)
	if _, err := Decode(badVersion); err == nil {
		t.Fatal("decode accepted an unknown version")
	}
}

func TestStoreWriteLoadQuarantine(t *testing.T) {
	qm := testModel(t)
	blob, digest, err := Encode(testKey, qm)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, swept, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if swept != 0 {
		t.Fatalf("fresh dir swept %d temp files", swept)
	}
	if err := s.WriteBlob(testKey, blob); err != nil {
		t.Fatal(err)
	}
	loaded, quarantined, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if quarantined != 0 || len(loaded) != 1 {
		t.Fatalf("load: %d entries, %d quarantined; want 1, 0", len(loaded), quarantined)
	}
	if loaded[0].Digest != digest || loaded[0].Key != testKey {
		t.Fatalf("loaded %s (%s), want %s (%s)", loaded[0].Key, loaded[0].Digest, testKey, digest)
	}

	// Corrupt the file on disk: the next load must quarantine it, not
	// serve it and not fail the whole load.
	path := PathFor(dir, testKey)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, quarantined, err = s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if quarantined != 1 || len(loaded) != 0 {
		t.Fatalf("corrupt load: %d entries, %d quarantined; want 0, 1", len(loaded), quarantined)
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}

	// A crash mid-write leaves *.tmp litter; reopening sweeps it.
	if err := os.WriteFile(filepath.Join(dir, "half-written.qsnap.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, swept, err = Open(dir); err != nil || swept != 1 {
		t.Fatalf("reopen swept %d temp files (err %v), want 1", swept, err)
	}
}

// FuzzSnapshotDecode drives the decoder with truncated, bit-flipped and
// arbitrary inputs. Two properties must hold on every input: Decode
// never panics, and it never returns a payload whose embedded digest
// does not match the payload bytes — corruption is rejected by the hash
// check, not by luck in the parser.
func FuzzSnapshotDecode(f *testing.F) {
	cfg := vit.ViTNano
	m := vit.New(cfg, 99)
	calib := data.CalibrationSet(cfg, 2, 1)
	qm, err := ptq.Quantize(m, ptq.NewQUQ(), ptq.CalibOptions{Bits: 6, Regime: ptq.Partial, Images: calib})
	if err != nil {
		f.Fatal(err)
	}
	blob, _, err := Encode(testKey, qm)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:headerBytes])
	flip := append([]byte(nil), blob...)
	flip[headerBytes+4] ^= 0x80
	f.Add(flip)
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data) // must never panic
		if err != nil {
			return
		}
		if e == nil || e.Model == nil {
			t.Fatal("nil entry without error")
		}
		payload := data[headerBytes:]
		sum := sha256.Sum256(payload)
		if hex.EncodeToString(sum[:]) != e.Digest {
			t.Fatalf("decoder accepted digest %s but payload hashes to %x", e.Digest, sum)
		}
		var want [32]byte
		copy(want[:], data[12:44])
		if want != sum {
			t.Fatal("decoder accepted a payload whose embedded digest does not match")
		}
	})
}

// legacySave is the per-element checkpoint writer vit.AppendCheckpoint
// replaced: one 8-byte bufio write per value.
func legacySave(m vit.Model, w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("QUQVIT01")
	var names []string
	var datas [][]float64
	m.Params(func(name string, data []float64) {
		names = append(names, name)
		datas = append(datas, data)
	})
	binary.Write(bw, binary.LittleEndian, uint32(len(names)))
	buf := make([]byte, 8)
	for i, name := range names {
		binary.Write(bw, binary.LittleEndian, uint32(len(name)))
		bw.WriteString(name)
		binary.Write(bw, binary.LittleEndian, uint64(len(datas[i])))
		for _, v := range datas[i] {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			bw.Write(buf)
		}
	}
	return bw.Flush()
}

// legacyEncode is the snapshot writer Encode replaced: the payload grown
// through a bytes.Buffer around a legacySave checkpoint, then copied
// behind the header.
func legacyEncode(t *testing.T, key string, qm *ptq.QuantizedModel) []byte {
	t.Helper()
	var p bytes.Buffer
	str := func(s string) {
		binary.Write(&p, binary.LittleEndian, uint32(len(s)))
		p.WriteString(s)
	}
	blob := func(b []byte) {
		binary.Write(&p, binary.LittleEndian, uint64(len(b)))
		p.Write(b)
	}
	str(key)
	str(qm.Model.Config().Name)
	str(qm.Method)
	binary.Write(&p, binary.LittleEndian, uint32(qm.Bits))
	binary.Write(&p, binary.LittleEndian, uint32(qm.Regime))
	var model bytes.Buffer
	if err := legacySave(qm.Model, &model); err != nil {
		t.Fatal(err)
	}
	blob(model.Bytes())
	acts := make([]string, 0, len(qm.Acts))
	for k := range qm.Acts {
		acts = append(acts, k)
	}
	sort.Strings(acts)
	binary.Write(&p, binary.LittleEndian, uint32(len(acts)))
	for _, k := range acts {
		tag, data, err := ptq.MarshalQuantizer(qm.Acts[k])
		if err != nil {
			t.Fatal(err)
		}
		str(k)
		str(tag)
		blob(data)
	}
	if qm.WeightParams == nil {
		p.WriteByte(0)
	} else {
		p.WriteByte(1)
		wps := make([]string, 0, len(qm.WeightParams))
		for k := range qm.WeightParams {
			wps = append(wps, k)
		}
		sort.Strings(wps)
		binary.Write(&p, binary.LittleEndian, uint32(len(wps)))
		for _, k := range wps {
			data, err := qm.WeightParams[k].MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			str(k)
			blob(data)
		}
	}
	sum := sha256.Sum256(p.Bytes())
	out := append([]byte("QUQSNAP1"), 1, 0, 0, 0)
	out = append(out, sum[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(p.Len()))
	return append(out, p.Bytes()...)
}

// servedModel is one calibrated fixture and the key it is encoded under.
type servedModel struct {
	key string
	qm  *ptq.QuantizedModel
}

// servedModels calibrates the served architectures under QUQ (weight
// params present) and FQ-ViT (none) once per process: the writer oracle
// and the load oracle share them, and check.sh runs the load oracle at
// three -cpu values in one binary.
var servedModels = sync.OnceValues(func() ([]servedModel, error) {
	var out []servedModel
	for _, cfg := range []vit.Config{vit.ViTNano, vit.ViTSmall, vit.DeiTSmall, vit.SwinTiny} {
		calib := data.CalibrationSet(cfg, 2, 1)
		for _, meth := range []ptq.Method{ptq.NewQUQ(), baselines.FQViT{}} {
			qm, err := ptq.Quantize(vit.New(cfg, 99), meth, ptq.CalibOptions{Bits: 6, Regime: ptq.Full, Images: calib})
			if err != nil {
				return nil, err
			}
			out = append(out, servedModel{cfg.Name + "/" + meth.Name() + "/w6a6/full", qm})
		}
	}
	return out, nil
})

// TestEncodeMatchesPerElementWriter is the byte-identity oracle: on the
// served architectures, with QUQ (weight params present) and FQ-ViT
// (none), Encode's file image equals the per-element writer's, is one
// allocation of exactly its own length, and survives Decode→Encode
// byte for byte.
func TestEncodeMatchesPerElementWriter(t *testing.T) {
	models, err := servedModels()
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range models {
		key, qm := sm.key, sm.qm
		blob, digest, err := Encode(key, qm)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if (qm.WeightParams == nil) != (qm.Method == "FQ-ViT") {
			t.Fatalf("%s: weight params present = %v", key, qm.WeightParams != nil)
		}
		if !bytes.Equal(blob, legacyEncode(t, key, qm)) {
			t.Fatalf("%s: file image differs from the per-element writer's", key)
		}
		if cap(blob) != len(blob) {
			t.Fatalf("%s: file image has capacity %d for %d bytes", key, cap(blob), len(blob))
		}
		e, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		again, digest2, err := Encode(key, e.Model)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if digest2 != digest || !bytes.Equal(again, blob) {
			t.Fatalf("%s: Decode→Encode is not byte-identical", key)
		}
	}
}

// TestDecodeBoundsHostileCheckpoints: the digest is an unsigned
// SHA-256, so a sender can wrap any checkpoint in a snapshot that
// passes it. Headers claiming 2^28 values in one record, or 2^26
// records, must be rejected without sizing anything from the claim —
// the per-element reader allocated 2 GiB and 7 GiB for these.
func TestDecodeBoundsHostileCheckpoints(t *testing.T) {
	hugeRecord := binary.LittleEndian.AppendUint32([]byte("QUQVIT01"), 1)
	hugeRecord = binary.LittleEndian.AppendUint32(hugeRecord, 1)
	hugeRecord = append(hugeRecord, 'x')
	hugeRecord = binary.LittleEndian.AppendUint64(hugeRecord, 1<<28)
	hugeCount := binary.LittleEndian.AppendUint32([]byte("QUQVIT01"), 1<<26)
	for name, ckpt := range map[string][]byte{"value count 2^28": hugeRecord, "record count 2^26": hugeCount} {
		var p []byte
		for _, s := range []string{testKey, "ViT-Nano", "QUQ"} {
			p = binary.LittleEndian.AppendUint32(p, uint32(len(s)))
			p = append(p, s...)
		}
		p = binary.LittleEndian.AppendUint32(p, 6)
		p = binary.LittleEndian.AppendUint32(p, uint32(ptq.Partial))
		p = binary.LittleEndian.AppendUint64(p, uint64(len(ckpt)))
		p = append(p, ckpt...)
		p = binary.LittleEndian.AppendUint32(p, 0) // no activation sites
		p = append(p, 0)                           // no weight params
		sum := sha256.Sum256(p)
		file := append([]byte(magic), 1, 0, 0, 0)
		file = append(file, sum[:]...)
		file = binary.LittleEndian.AppendUint64(file, uint64(len(p)))
		file = append(file, p...)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(file)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: hostile checkpoint decoded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: rejecting a %d-byte snapshot allocated %d bytes", name, len(file), grew)
		}
	}
}
