// Benchmarks regenerating each table and figure of the paper's
// evaluation at benchmark-friendly scale. Run with:
//
//	go test -bench=. -benchmem
//
// The full-scale artifacts come from `go run ./cmd/quq all`; these
// benches exist to time the pipelines. The primitives underneath them
// (PRA, the QUB codec, the GEMM kernels, the forwards) are timed against
// one baseline by the per-layer rows of bench/.
package quq_test

import (
	"testing"

	"quq/internal/experiments"
	"quq/internal/vit"
)

// BenchmarkTable1 regenerates the MSE comparison (reduced sample count).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(1<<13, 42)
	}
}

// benchZoo prepares a one-model zoo at benchmark scale, once.
var benchZooCache []*experiments.ZooModel

func benchZoo(b *testing.B) []*experiments.ZooModel {
	b.Helper()
	if benchZooCache == nil {
		benchZooCache = experiments.BuildZoo(experiments.ZooOptions{
			Configs:     []vit.Config{vit.ViTNano},
			TrainImages: 60,
			EvalImages:  20,
			CalibImages: 4,
			Seed:        7,
		})
	}
	return benchZooCache
}

// BenchmarkTable2 regenerates the partial-quantization comparison on a
// reduced zoo.
func BenchmarkTable2(b *testing.B) {
	zoo := benchZoo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(zoo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the full-quantization comparison on a
// reduced zoo.
func BenchmarkTable3(b *testing.B) {
	zoo := benchZoo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(zoo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates the accelerator area/power table.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table4()
	}
}

// BenchmarkFig2 regenerates the peak-memory sweep.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig2(6, nil)
	}
}

// BenchmarkFig3 regenerates the distribution/quantization-point panels.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3(1<<12, 4, 42)
	}
}

// BenchmarkFig7 regenerates the attention-retention experiment at
// reduced scale (ViT-Nano-sized model, few images).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(experiments.Fig7Options{Config: vit.ViTNano, Images: 2, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation runs the PRA design-choice sweep.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Ablations(1<<12, 6, 42)
	}
}
