// The bit-level pin on every quantization method: ViT-Nano at 6 bits,
// each method in both regimes, held to committed digests of what it
// calibrated (the snapshot payload: weights and site quantizers) and of
// what it serves (a stacked forward's logits). QUQ is pinned at every
// other bit-width the cold keys use too (4, 5, 7 and 8): PRA's quantile
// walk stops at a different q for each. QUQ keys are also held by the
// benchmark's cold-keys digests; the comparison methods only here.
//
// A deliberate change of any method's arithmetic re-pins with
//
//	go test -run TestBaselinePin -update-pin .
//
// and says why in its commit.
package quq_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"quq/internal/baselines"
	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/serve"
	"quq/internal/snapstore"
	"quq/internal/vit"
)

var updatePin = flag.Bool("update-pin", false, "rewrite testdata/baseline_pin.json from this tree")

// pinCell is one (method, regime) row of the pin.
type pinCell struct {
	Snapshot string `json:"snapshot"`
	Logits   string `json:"logits"`
}

func TestBaselinePin(t *testing.T) {
	cfg := vit.ViTNano
	imgs := data.Images(cfg, 3, 2)
	got := map[string]pinCell{}
	pin := func(method ptq.Method, bits int) {
		for regime, qm := range bothRegimesAt(t, cfg, method, bits) {
			key := serve.Key{Config: cfg.Name, Method: method.Name(), Bits: bits, Regime: regime}.String()
			_, digest, err := snapstore.Encode(key, qm)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			h := sha256.New()
			for _, logits := range qm.ForwardBatch(imgs, 2) {
				for _, v := range logits.Data() {
					h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
				}
			}
			got[key] = pinCell{Snapshot: digest, Logits: hex.EncodeToString(h.Sum(nil))}
		}
	}
	for _, method := range []ptq.Method{
		ptq.NewQUQ(), baselines.BaseQ{}, baselines.PTQ4ViT{}, baselines.APQViT{}, baselines.FQViT{}, baselines.BiScaled{},
	} {
		pin(method, 6)
	}
	for _, bits := range []int{4, 5, 7, 8} {
		pin(ptq.NewQUQ(), bits)
	}

	path := filepath.Join("testdata", "baseline_pin.json")
	if *updatePin {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]pinCell
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells, %s pins %d", len(got), path, len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		switch {
		case !ok:
			t.Errorf("%s: pinned, not built", key)
		case g.Snapshot != w.Snapshot:
			t.Errorf("%s: snapshot digest %s, pinned %s", key, g.Snapshot, w.Snapshot)
		case g.Logits != w.Logits:
			t.Errorf("%s: logits digest %s, pinned %s", key, g.Logits, w.Logits)
		}
	}
}
