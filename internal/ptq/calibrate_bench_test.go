package ptq_test

import (
	"fmt"
	"testing"

	"quq/internal/baselines"
	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/vit"
)

// BenchmarkCalibrateViTS times each calibration node of one ViT-S cold
// key with QUQ: the FP32 statistics collection over the 32-image
// calibration set, the site calibrations of both site kinds at every
// bit-width the cold keys use, and the weight quantization at 6 bits.
// Collect_ViTNano is the collection of a ViT-Nano key, the model
// fleet-singles serves. The BaseQ legs time the same two nodes with
// per-tensor uniform quantization, whose clipping search scores on the
// QUQ tap kernel. Each node reports its own ns/op and allocations. Run
// with
//
//	go test -run '^$' -bench CalibrateViTS -benchtime 3x ./internal/ptq/
func BenchmarkCalibrateViTS(b *testing.B) {
	cfg := vit.ViTSmall
	m := vit.New(cfg, 1)
	calib := data.CalibrationSet(cfg, 32, 1)
	method := ptq.NewQUQ()
	b.Run("Collect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ptq.Collect(m, calib, 0)
		}
	})
	b.Run("Collect_ViTNano", func(b *testing.B) {
		nano := vit.New(vit.ViTNano, 1)
		nanoCalib := data.CalibrationSet(vit.ViTNano, 32, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ptq.Collect(nano, nanoCalib, 0)
		}
	})
	stats := ptq.Collect(m, calib, 0)
	calibrate := func(name string, method ptq.Method, bits int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ptq.CalibrateSites(stats, vit.KindGEMMIn, method, bits)
				ptq.CalibrateSites(stats, vit.KindActivation, method, bits)
			}
		})
	}
	quantizeWeights := func(name string, method ptq.Method) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ptq.QuantizeWeights(m, stats, method, 6)
			}
		})
	}
	for bits := 4; bits <= 8; bits++ {
		calibrate(fmt.Sprintf("CalibrateSites_w%d", bits), method, bits)
	}
	quantizeWeights("QuantizeWeights_w6", method)
	calibrate("CalibrateSites_BaseQ_w6", baselines.BaseQ{}, 6)
	quantizeWeights("QuantizeWeights_BaseQ_w6", baselines.BaseQ{})
}
