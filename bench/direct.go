package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"quq/internal/accel"
	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/quant"
	"quq/internal/qub"
	"quq/internal/rng"
	"quq/internal/serve"
	"quq/internal/snapstore"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// timeCalls times f call by call for about budget (at least three calls)
// and returns the median call in seconds.
func timeCalls(budget time.Duration, f func()) float64 {
	f() // page in code and scratch pools
	var calls []float64
	for start := time.Now(); len(calls) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		f()
		calls = append(calls, time.Since(t0).Seconds())
	}
	return median(calls)
}

// timedMethod is QUQ with a stopwatch on each Method call, so one real
// ptq.Quantize splits into activation calibration and weight
// quantization from outside.
type timedMethod struct {
	inner       *ptq.QUQMethod
	act, weight time.Duration
}

func (m *timedMethod) Name() string { return m.inner.Name() }

func (m *timedMethod) CalibrateActivation(st *ptq.SiteStats, bits int) ptq.TensorQuantizer {
	defer func(t0 time.Time) { m.act += time.Since(t0) }(time.Now())
	return m.inner.CalibrateActivation(st, bits)
}

func (m *timedMethod) QuantizeWeight(site vit.Site, w *tensor.Tensor, bits int) {
	defer func(t0 time.Time) { m.weight += time.Since(t0) }(time.Now())
	m.inner.QuantizeWeight(site, w, bits)
}

func (m *timedMethod) QuantizeWeightAware(site vit.Site, w *tensor.Tensor, bits int, inputSq []float64) {
	defer func(t0 time.Time) { m.weight += time.Since(t0) }(time.Now())
	m.inner.QuantizeWeightAware(site, w, bits, inputSq)
}

func (m *timedMethod) RecordWeightParams(fn func(vit.Site, *quant.Params)) {
	m.inner.RecordWeightParams(fn)
}

// calibrationRows repeats the registry's build of key outside it — same
// model size, calibration set size and method — and reports where the
// build's time goes.
func calibrationRows(key keySpec, out map[string]float64) error {
	cfg := key.config()
	base := vit.New(cfg, defaultSeed)
	calib := data.CalibrationSet(cfg, 32, defaultSeed)
	regime := ptq.Partial
	if key.Regime == "full" {
		regime = ptq.Full
	}

	t0 := time.Now()
	ptq.Collect(base, calib, 0)
	out["ptq.collect_ms"] = ms(time.Since(t0).Seconds())

	m := &timedMethod{inner: ptq.NewQUQ()}
	qm, err := ptq.Quantize(base, m, ptq.CalibOptions{Bits: key.Bits, Regime: regime, Images: calib})
	if err != nil {
		return err
	}
	out["ptq.calib_act_ms"] = ms(m.act.Seconds())
	out["ptq.weight_quant_ms"] = ms(m.weight.Seconds())

	var buildErr error
	out["ptq.int_engine_build_ms"] = ms(timeCalls(20*time.Millisecond, func() {
		if _, err := ptq.NewIntEngine(qm); err != nil {
			buildErr = err
		}
	}))
	return buildErr
}

// kernelRows times the primitives under the forward by direct call at
// the model's qkv shape (tokens x dim x 3·dim), on the activations and
// weights the served model really has there.
func kernelRows(qm *ptq.QuantizedModel, img *tensor.Tensor, seed uint64, out map[string]float64) error {
	const site = "b00.attn.qkv.w"
	var qkv *vit.Linear
	qm.Model.ForEachWeight(func(s vit.Site, l *vit.Linear) {
		if s.Key() == site {
			qkv = l
		}
	})
	act, ok := qm.Acts["b00.ln1.out"].(ptq.QUQTensorQuantizer)
	wp := qm.WeightParams[site]
	if qkv == nil || !ok || wp == nil {
		return fmt.Errorf("model has no QUQ-quantized %s", site)
	}
	var x *tensor.Tensor
	qm.ForwardOpts(img, vit.ForwardOpts{Tap: func(s vit.Site, t *tensor.Tensor) *tensor.Tensor {
		if s.Key() == "b00.ln1.out" {
			x = t // already fake-quantized: the outer tap runs after the quantizer
		}
		return t
	}})
	m, k, n := x.Dim(0), qkv.In(), qkv.Out()
	elems := float64(m * k)
	const budget = 30 * time.Millisecond

	buf := make([]float64, m*k)
	out["quant.quantize_ns_per_elem"] = 1e9 * timeCalls(budget, func() { act.Params.QuantizeSlice(buf, x.Data()) }) / elems

	// A reservoir-sized sample with the heavy tail QUQ is built for.
	src := rng.New(seed)
	sample := make([]float64, 32768)
	for i := range sample {
		sample[i] = src.Laplace(1)
	}
	var pra *quant.Params
	out["quant.pra_ms"] = ms(timeCalls(budget, func() { pra = quant.PRA(sample, qm.Bits, quant.DefaultPRAOptions()) }))
	out["quant.refine_ms"] = ms(timeCalls(budget, func() { quant.Refine(sample, pra, quant.DefaultRefineOptions()) }))

	regs, err := qub.RegistersFor(act.Params)
	if err != nil {
		return err
	}
	var words []qub.Word
	out["qub.encode_ns_per_elem"] = 1e9 * timeCalls(budget, func() { words = qub.EncodeTensor(act.Params, x.Data()) }) / elems
	out["qub.decode_ns_per_elem"] = 1e9 * timeCalls(budget, func() { qub.DecodeTensor(words, regs) }) / elems

	var prep *accel.PreparedOperand
	out["accel.prepare_ms"] = ms(timeCalls(budget, func() { prep, err = accel.PrepareQuantized(wp, qkv.W.Data(), k, n) }))
	if err != nil {
		return err
	}
	arr := accel.DefaultArray(qm.Bits)
	out["accel.gemm_prepared_us"] = 1e6 * timeCalls(budget, func() { _, err = arr.GEMMPrepared(words, regs, prep, m, k, nil) })
	if err != nil {
		return err
	}

	ops := 2 * float64(m) * float64(k) * float64(n)
	dst := tensor.New(m, n)
	out["tensor.matmul_gflops"] = ops / timeCalls(budget, func() { tensor.MatMulInto(dst, x, qkv.W) }) / 1e9
	codes := make([]int64, m*k)
	for i, v := range x.Data() {
		codes[i] = int64(v / act.Params.BaseDelta())
	}
	acc := make([]int64, m*n)
	out["tensor.intmatmul_gops"] = ops / timeCalls(budget, func() { tensor.IntMatMulInto(acc, codes, prep.V, m, k, n) }) / 1e9
	// Computed from the operand sizes, not measured: one read of each
	// operand and one write of the result, 8 bytes an element.
	out["tensor.matmul_bytes"] = 8 * float64(m*k+k*n+m*n)
	return nil
}

// snapstoreRows times the snapshot path of the primary key by direct
// call: encode, atomic write (with its fsync), directory load, decode,
// and a registry's warm restart on the directory. A workload that
// filled a snapshot dir itself has load and warm restart measured on
// that one.
func (lp *layerPass) snapstoreRows(key string, out map[string]float64) (err error) {
	dir, err := os.MkdirTemp(lp.scratch, "snap-")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	store, _, err := snapstore.Open(dir)
	if err != nil {
		return err
	}
	const budget = 50 * time.Millisecond
	var blob []byte
	out["snapstore.encode_ms"] = ms(timeCalls(budget, func() { blob, _, err = snapstore.Encode(key, lp.models[0]) }))
	if err != nil {
		return err
	}
	out["snapstore.bytes_per_key"] = float64(len(blob))
	out["snapstore.write_ms"] = ms(timeCalls(budget, func() { err = store.WriteBlob(key, blob) }))
	if err != nil {
		return err
	}
	out["snapstore.decode_ms"] = ms(timeCalls(budget, func() { _, err = snapstore.Decode(blob) }))
	if err != nil {
		return err
	}
	if lp.snapDir != "" {
		if store, _, err = snapstore.Open(lp.snapDir); err != nil {
			return err
		}
	}
	out["snapstore.load_ms"] = ms(timeCalls(budget, func() { _, _, err = store.Load() }))
	if err != nil {
		return err
	}
	out["snapstore.warm_restart_ms"] = lp.warmRestartMs
	if lp.snapDir == "" {
		restart, err := warmRestart(store.Dir())
		if err != nil {
			return err
		}
		out["snapstore.warm_restart_ms"] = ms(restart.Seconds())
	}
	return nil
}

// warmRestart times a new registry on dir from construction until it
// stops answering "warming".
func warmRestart(dir string) (time.Duration, error) {
	t0 := time.Now()
	reg := serve.NewRegistry(serve.RegistryOptions{SnapshotDir: dir}, nil)
	for reg.Warming() {
		time.Sleep(50 * time.Microsecond)
	}
	d := time.Since(t0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d, reg.Drain(ctx)
}
