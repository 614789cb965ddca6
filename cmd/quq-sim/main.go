// Command quq-sim drives the QUA accelerator simulator. On a GEMM
// workload it calibrates QUQ parameters for synthetic operands, encodes
// them as QUBs, runs the bit-exact integer datapath, and reports cycles,
// utilization, accuracy against the float reference, and the area/power
// of the configured array; with -model it prices a served ViT-Nano.
//
// Usage:
//
//	quq-sim [-n 16] [-bits 6] [-m 64] [-k 96] [-o 64] | -model
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"quq/internal/accel"
	"quq/internal/data"
	"quq/internal/dist"
	"quq/internal/hweval"
	"quq/internal/ptq"
	"quq/internal/quant"
	"quq/internal/rng"
	"quq/internal/tensor"
	"quq/internal/vit"
)

func main() {
	n := flag.Int("n", 16, "PE array side")
	bits := flag.Int("bits", 6, "operand bit-width")
	m := flag.Int("m", 64, "GEMM rows (activations)")
	k := flag.Int("k", 96, "GEMM inner dimension")
	o := flag.Int("o", 64, "GEMM columns (output channels)")
	seed := flag.Uint64("seed", 1, "workload seed")
	model := flag.Bool("model", false, "run a whole ViT-Nano inference on the integer datapath instead of one GEMM")
	flag.Parse()
	log.SetFlags(0)

	if *model {
		runModel(*n, *bits, *seed)
		return
	}

	src := rng.New(*seed)
	xs := dist.Sample(dist.PreAddition, *m**k, src.Split())
	ws := dist.Sample(dist.QueryWeight, *k**o, src.Split())
	x := tensor.FromSlice(xs, *m, *k)
	w := tensor.FromSlice(ws, *k, *o)

	px := quant.PRA(x.Data(), *bits, quant.DefaultPRAOptions())
	pw := quant.PRA(w.Data(), *bits, quant.DefaultPRAOptions())
	fmt.Printf("activation quantizer: %v\n", px)
	fmt.Printf("weight quantizer:     %v\n", pw)

	ql, err := accel.NewQuantizedLinear(px, pw)
	if err != nil {
		log.Fatal(err)
	}

	// Output quantizer from the float product.
	ref := tensor.MatMul(x, w)
	pout := quant.PRA(ref.Data(), *bits, quant.DefaultPRAOptions())
	qu, err := accel.NewQuantizeUnit(pout, ql.AccUnit())
	if err != nil {
		log.Fatal(err)
	}

	cfg := accel.ArrayConfig{N: *n, Bits: *bits}
	out, res, err := ql.Run(cfg, x, w, qu)
	if err != nil {
		log.Fatal(err)
	}

	// Fidelity versus the float fake-quantization pipeline.
	xq := x.Clone()
	px.QuantizeSlice(xq.Data(), xq.Data())
	wq := w.Clone()
	pw.QuantizeSlice(wq.Data(), wq.Data())
	refQ := tensor.MatMul(xq, wq).Apply(func(v float64) float64 { return pout.Value(v) })

	var maxErr float64
	for i := range out.Data() {
		if e := math.Abs(out.Data()[i] - refQ.Data()[i]); e > maxErr {
			maxErr = e
		}
	}

	fmt.Printf("\nGEMM %dx%dx%d on %dx%d array @ %d-bit\n", *m, *k, *o, *n, *n, *bits)
	fmt.Printf("cycles:        %d (%d tiles, utilization %.1f%%)\n", res.Stats.Cycles, res.Stats.Tiles, 100*res.Stats.Utilization)
	fmt.Printf("max |acc|:     %d (fits 32-bit: %v)\n", res.MaxAbsAcc, res.MaxAbsAcc < 1<<31)
	fmt.Printf("output MSE vs FP32:       %.4e\n", tensor.MSE(out, ref))
	fmt.Printf("max |err| vs fake-quant:  %.4e (one base Δ = %.4e)\n", maxErr, pout.BaseDelta())

	qua := hweval.Evaluate(hweval.DefaultConfig(hweval.QUADesign, *bits, *n))
	base := hweval.Evaluate(hweval.DefaultConfig(hweval.BaseQDesign, *bits, *n))
	secs := float64(res.Stats.Cycles) / (qua.Config.ClockMHz * 1e6)
	fmt.Printf("\nQUA  %dx%d @%d-bit: %.3f mm2, %.1f mW  (run: %.2f µs, %.3f µJ)\n",
		*n, *n, *bits, qua.AreaMM2, qua.PowerMW, secs*1e6, qua.PowerMW*secs*1e3)
	fmt.Printf("BaseQ reference:   %.3f mm2, %.1f mW\n", base.AreaMM2, base.PowerMW)
}

// runModel quantizes ViT-Nano the way quq-serve does (QUQ, full regime)
// and executes that model — its weights, its quantizers — on the integer
// QUA datapath, reporting end-to-end cycles, latency and energy, and the
// fidelity of the simulated logits against FP32 and against the served
// fake-quantized forward of the same quantized model.
func runModel(n, bits int, seed uint64) {
	cfg := vit.ViTNano
	mdl := vit.New(cfg, seed)
	qm, err := ptq.Quantize(mdl, ptq.NewQUQ(), ptq.CalibOptions{
		Bits: bits, Regime: ptq.Full, Images: data.CalibrationSet(cfg, 8, seed),
	})
	if err != nil {
		log.Fatal(err)
	}
	runner, err := accel.NewModelRunner(qm.Model, qm.SiteParams(), accel.ArrayConfig{N: n, Bits: bits})
	if err != nil {
		log.Fatal(err)
	}
	img := data.Images(cfg, 1, seed^0x51)[0]
	logits, stats, err := runner.Run(img)
	if err != nil {
		log.Fatal(err)
	}
	hw := hweval.Evaluate(hweval.DefaultConfig(hweval.QUADesign, bits, n))
	secs := float64(stats.GEMMCycles) / (hw.Config.ClockMHz * 1e6)
	fmt.Printf("%s on the integer QUA datapath (%dx%d array, %d-bit):\n", cfg.Name, n, n, bits)
	fmt.Printf("  GEMM cycles: %d (%d MACs)\n", stats.GEMMCycles, stats.MACs)
	fmt.Printf("  latency:     %.2f µs @ 500 MHz\n", secs*1e6)
	fmt.Printf("  energy:      %.3f µJ (%.1f mW accelerator)\n", hw.PowerMW*secs*1e3, hw.PowerMW)
	fidelity := func(name string, ref *tensor.Tensor) {
		fmt.Printf("  top-1 match vs %s: %v (argmax %d vs %d), logits cosine %.4f\n", name,
			logits.ArgMax() == ref.ArgMax(), logits.ArgMax(), ref.ArgMax(), tensor.CosineSimilarity(logits, ref))
	}
	fidelity("FP32", mdl.Forward(img, vit.ForwardOpts{}))
	fidelity("served", qm.Forward(img))
}
