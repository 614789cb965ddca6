package snapstore

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/vit"
)

// BenchmarkSnapshotCodecViTS times one ViT-S QUQ snapshot (≈5.5 MB, the
// size of a served cold key) through Encode and Decode, allocations
// included. Calibration runs once, outside the timer.
//
//	go test -run '^$' -bench SnapshotCodecViTS -benchtime 20x -cpu 1 ./internal/snapstore/
func BenchmarkSnapshotCodecViTS(b *testing.B) {
	cfg := vit.ViTSmall
	qm, err := ptq.Quantize(vit.New(cfg, 2025), ptq.NewQUQ(), ptq.CalibOptions{
		Bits: 6, Regime: ptq.Full, Images: data.CalibrationSet(cfg, 2, 1),
	})
	if err != nil {
		b.Fatal(err)
	}
	const key = "ViT-S/QUQ/w6a6/full"
	blob, _, err := Encode(key, qm)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, _, err := Encode(key, qm); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, err := Decode(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type keyedBlob struct {
	key  string
	blob []byte
}

// coldKeyBlobs encodes the cold-keys snapshot mix once per process: ten
// ViT-S and ten ViT-Nano QUQ keys, bits 4-8 x both regimes.
var coldKeyBlobs = sync.OnceValues(func() ([]keyedBlob, error) {
	var out []keyedBlob
	for _, cfg := range []vit.Config{vit.ViTSmall, vit.ViTNano} {
		calib := data.CalibrationSet(cfg, 1, 1)
		for bits := 4; bits <= 8; bits++ {
			for _, regime := range []ptq.Regime{ptq.Partial, ptq.Full} {
				qm, err := ptq.Quantize(vit.New(cfg, 2025), ptq.NewQUQ(), ptq.CalibOptions{Bits: bits, Regime: regime, Images: calib})
				if err != nil {
					return nil, err
				}
				key := fmt.Sprintf("%s/QUQ/w%da%d/%s", cfg.Name, bits, bits, regime)
				blob, _, err := Encode(key, qm)
				if err != nil {
					return nil, err
				}
				out = append(out, keyedBlob{key, blob})
			}
		}
	}
	return out, nil
})

// BenchmarkStoreLoad times one warm restart's Store.Load over the
// cold-keys mix (twenty files, ≈65 MB), allocations included, and
// reports what one Load's entries keep resident: the live heap, after a
// collection, with the loaded slice alive, less the live heap before.
//
//	go test -run '^$' -bench StoreLoad -benchtime 20x -cpu 1,2 ./internal/snapstore/
func BenchmarkStoreLoad(b *testing.B) {
	blobs, err := coldKeyBlobs()
	if err != nil {
		b.Fatal(err)
	}
	s, _, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, kb := range blobs {
		if err := s.WriteBlob(kb.key, kb.blob); err != nil {
			b.Fatal(err)
		}
		total += int64(len(kb.blob))
	}
	b.ReportAllocs()
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, quarantined, err := s.Load()
		if err != nil || quarantined != 0 || len(loaded) != len(blobs) {
			b.Fatalf("load: %d entries, %d quarantined, err %v", len(loaded), quarantined, err)
		}
	}
	b.StopTimer()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	loaded, _, err := s.Load()
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(loaded)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/(1<<20), "resident-MiB")
}
