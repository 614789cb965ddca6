package snapstore

import (
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
