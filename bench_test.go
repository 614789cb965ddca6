// Benchmarks regenerating each table and figure of the paper's
// evaluation at benchmark-friendly scale, plus micro-benchmarks of the
// quantization primitives. Run with:
//
//	go test -bench=. -benchmem
//
// The full-scale artifacts come from `go run ./cmd/quq all`; these
// benches exist to time the pipelines and catch performance regressions.
package quq_test

import (
	"testing"

	"quq"
	"quq/internal/accel"
	"quq/internal/baselines"
	"quq/internal/data"
	"quq/internal/dist"
	"quq/internal/experiments"
	"quq/internal/hweval"
	"quq/internal/memsim"
	"quq/internal/ptq"
	"quq/internal/quant"
	"quq/internal/qub"
	"quq/internal/rng"
	"quq/internal/sfu"
	"quq/internal/tensor"
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

// --- Micro-benchmarks of the primitives ---

func benchSamples(n int) []float64 {
	return dist.Sample(dist.PreAddition, n, rng.New(99))
}

// BenchmarkPRA times Algorithm 2 on a 64k-element tensor.
func BenchmarkPRA(b *testing.B) {
	xs := benchSamples(1 << 16)
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.PRA(xs, 6, quant.DefaultPRAOptions())
	}
}

// BenchmarkCalibrateRefined times the full calibration pipeline.
func BenchmarkCalibrateRefined(b *testing.B) {
	xs := benchSamples(1 << 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quq.Calibrate(xs, 6)
	}
}

// BenchmarkQuantizeSlice times fake quantization throughput.
func BenchmarkQuantizeSlice(b *testing.B) {
	xs := benchSamples(1 << 16)
	p := quant.PRA(xs, 6, quant.DefaultPRAOptions())
	out := make([]float64, len(xs))
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.QuantizeSlice(out, xs)
	}
}

// BenchmarkQUBEncodeDecode times the codec round trip.
func BenchmarkQUBEncodeDecode(b *testing.B) {
	xs := benchSamples(1 << 14)
	p := quant.PRA(xs, 8, quant.DefaultPRAOptions())
	regs, err := qub.RegistersFor(p)
	if err != nil {
		b.Fatal(err)
	}
	words := qub.EncodeTensor(p, xs)
	b.SetBytes(int64(len(xs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qub.DecodeTensor(words, regs)
	}
}

// BenchmarkQUBDot times the Eq. (5) integer dot product.
func BenchmarkQUBDot(b *testing.B) {
	xs := benchSamples(1 << 12)
	ws := dist.Sample(dist.QueryWeight, 1<<12, rng.New(5))
	px := quant.PRA(xs, 6, quant.DefaultPRAOptions())
	pw := quant.PRA(ws, 6, quant.DefaultPRAOptions())
	rx, _ := qub.RegistersFor(px)
	rw, _ := qub.RegistersFor(pw)
	ex := qub.EncodeTensor(px, xs)
	ew := qub.EncodeTensor(pw, ws)
	b.SetBytes(int64(len(xs) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qub.Dot(ex, ew, rx, rw)
	}
}

// BenchmarkAccelGEMM times the bit-exact accelerator GEMM (64×96×64).
func BenchmarkAccelGEMM(b *testing.B) {
	xs := benchSamples(64 * 96)
	ws := dist.Sample(dist.QueryWeight, 96*64, rng.New(6))
	px := quant.PRA(xs, 6, quant.DefaultPRAOptions())
	pw := quant.PRA(ws, 6, quant.DefaultPRAOptions())
	ql, err := accel.NewQuantizedLinear(px, pw)
	if err != nil {
		b.Fatal(err)
	}
	ex := qub.EncodeTensor(px, xs)
	ew := qub.EncodeTensor(pw, ws)
	cfg := accel.DefaultArray(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.GEMM(ex, ql.XRegs, ew, ql.WRegs, 64, 96, 64, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockRunnerIntegerPath times one transformer block executed
// entirely on the integer QUA datapath (QUB GEMMs + integer SFUs).
func BenchmarkBlockRunnerIntegerPath(b *testing.B) {
	src := rng.New(12)
	blk := vit.NewBlock(48, 3, 4)
	blk.QKV.W.Apply(func(float64) float64 { return src.Gauss(0, 0.2) })
	blk.Proj.W.Apply(func(float64) float64 { return src.Gauss(0, 0.15) })
	blk.FC1.W.Apply(func(float64) float64 { return src.Gauss(0, 0.2) })
	blk.FC2.W.Apply(func(float64) float64 { return src.Gauss(0, 0.15) })
	x := tensor.New(17, 48)
	for i := range x.Data() {
		x.Data()[i] = src.Laplace(0.8)
	}
	params, err := accel.CalibrateBlock(blk, []*tensor.Tensor{x}, 8)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := accel.NewBlockRunner(blk, params, accel.DefaultArray(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runner.Run(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSFUSoftmax times the integer softmax kernel on a 64-wide row.
func BenchmarkSFUSoftmax(b *testing.B) {
	src := rng.New(13)
	row := make([]int64, 64)
	for i := range row {
		row[i] = sfu.ToFixed(src.Gauss(0, 4))
	}
	out := make([]int64, len(row))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sfu.Softmax(out, row)
	}
}

// BenchmarkForwardViTNano times one FP32 inference.
func BenchmarkForwardViTNano(b *testing.B) {
	m := vit.New(vit.ViTNano, 1)
	img := data.Images(vit.ViTNano, 1, 2)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(img, vit.ForwardOpts{})
	}
}

// BenchmarkForwardQuantized times one fully quantized inference.
func BenchmarkForwardQuantized(b *testing.B) {
	m := vit.New(vit.ViTNano, 1)
	calib := data.CalibrationSet(vit.ViTNano, 4, 3)
	qm, err := ptq.Quantize(m, ptq.NewQUQ(), ptq.CalibOptions{Bits: 6, Regime: ptq.Full, Images: calib})
	if err != nil {
		b.Fatal(err)
	}
	img := data.Images(vit.ViTNano, 1, 2)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qm.Forward(img)
	}
}

// BenchmarkBaselineCalibration times the comparison methods' calibration
// on one tensor.
func BenchmarkBaselineCalibration(b *testing.B) {
	m := vit.New(vit.ViTNano, 1)
	calib := data.CalibrationSet(vit.ViTNano, 4, 3)
	stats := ptq.Collect(m, calib, 8192)
	var st *ptq.SiteStats
	for _, s := range stats {
		if s.Site.Name == "resid1.out" {
			st = s
			break
		}
	}
	methods := []ptq.Method{baselines.BaseQ{}, baselines.PTQ4ViT{}, baselines.APQViT{}, baselines.FQViT{}, baselines.BiScaled{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		methods[i%len(methods)].CalibrateActivation(st, 6)
	}
}

// BenchmarkMemsim times one peak-memory walk.
func BenchmarkMemsim(b *testing.B) {
	blk := memsim.PaperBlocks(8)[2]
	for i := 0; i < b.N; i++ {
		memsim.Peak(blk, memsim.FullQuant(6))
	}
}

// BenchmarkHweval times one accelerator evaluation.
func BenchmarkHweval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hweval.Evaluate(hweval.DefaultConfig(hweval.QUADesign, 6, 64))
	}
}

// BenchmarkMatMul times the tensor GEMM kernel (96×384×96).
func BenchmarkMatMul(b *testing.B) {
	src := rng.New(1)
	x := tensor.New(96, 384)
	w := tensor.New(384, 96)
	for i := range x.Data() {
		x.Data()[i] = src.Norm()
	}
	for i := range w.Data() {
		w.Data()[i] = src.Norm()
	}
	b.SetBytes(int64(96 * 384 * 96 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, w)
	}
}
