package ptq

import (
	"fmt"
	"testing"

	"quq/internal/data"
	"quq/internal/vit"
)

// BenchmarkCalibrateViTS times each calibration node of one ViT-S cold
// key with QUQ: the FP32 statistics collection over the 32-image
// calibration set, the site calibrations of both site kinds at every
// bit-width the cold keys use, and the weight quantization at 6 bits.
// Collect_ViTNano is the collection of a ViT-Nano key, the model
// fleet-singles serves. Each node reports its own ns/op and allocations.
// Run with
//
//	go test -run '^$' -bench CalibrateViTS -benchtime 3x ./internal/ptq/
func BenchmarkCalibrateViTS(b *testing.B) {
	cfg := vit.ViTSmall
	m := vit.New(cfg, 1)
	calib := data.CalibrationSet(cfg, 32, 1)
	method := NewQUQ()
	b.Run("Collect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Collect(m, calib, 0)
		}
	})
	b.Run("Collect_ViTNano", func(b *testing.B) {
		nano := vit.New(vit.ViTNano, 1)
		nanoCalib := data.CalibrationSet(vit.ViTNano, 32, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Collect(nano, nanoCalib, 0)
		}
	})
	stats := Collect(m, calib, 0)
	for bits := 4; bits <= 8; bits++ {
		b.Run(fmt.Sprintf("CalibrateSites_w%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CalibrateSites(stats, vit.KindGEMMIn, method, bits)
				CalibrateSites(stats, vit.KindActivation, method, bits)
			}
		})
	}
	b.Run("QuantizeWeights_w6", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			QuantizeWeights(m, stats, method, 6)
		}
	})
}
