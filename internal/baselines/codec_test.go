package baselines

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"quq/internal/dist"
	"quq/internal/ptq"
	"quq/internal/rng"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// TestDecodeRejectsBadScales: a record whose scale factor is not
// positive and finite is malformed — no calibration makes one, and
// quant.Uniform cannot run on it.
func TestDecodeRejectsBadScales(t *testing.T) {
	records := []struct {
		q       ptq.TensorQuantizer
		offsets []int // byte offsets of the record's scale factors
	}{
		{affineQuantizer{scale: 0.1, zp: 3, bits: 6}, []int{0}},
		{biScaledQuantizer{fineDelta: 0.1, ratioLog: 2, bits: 6, outlierChan: []bool{true, false}}, []int{0}},
		{ptfQuantizer{delta: 0.1, shifts: []int{0, 3}, bits: 6}, []int{0}},
		{twinGELUQuantizer{dNeg: 0.01, dPos: 0.1, bits: 6}, []int{0, 8}},
	}
	for _, r := range records {
		tag, good, err := ptq.MarshalQuantizer(r.q)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := UnmarshalQuantizer(tag, good); !ok || err != nil {
			t.Fatalf("%s: valid record rejected: %v", tag, err)
		}
		for _, off := range r.offsets {
			for _, bad := range []float64{0, math.Copysign(0, -1), -0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
				data := append([]byte(nil), good...)
				binary.LittleEndian.PutUint64(data[off:], math.Float64bits(bad))
				if _, ok, err := UnmarshalQuantizer(tag, data); !ok || err == nil {
					t.Errorf("%s: scale %v at byte %d decoded", tag, bad, off)
				}
			}
		}
	}
}

// recordEdgeInputs are the values a decoded quantizer's Apply must take
// without panicking: both zeros, subnormals, ±1e300, ±Inf and NaN.
var recordEdgeInputs = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	3e-310, -3e-310, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(), 0.5,
}

// FuzzQuantizerRecord holds the quantizer decoder, as the snapshot
// store dispatches it, to its contract on arbitrary (tag, payload)
// pairs: decoding never panics; a record it accepts re-marshals to the
// same tag and bytes, and its Apply takes recordEdgeInputs — laid out
// flat and as rows of four channels, the width the seeds were
// calibrated on — without panicking; FQ-ViT's log2 record maps NaN to 0.
func FuzzQuantizerRecord(f *testing.F) {
	xs := dist.Sample(dist.PreAddition, 256, rng.New(11))
	probs := dist.Sample(dist.PostSoftmax, 256, rng.New(12))
	for _, meth := range []ptq.Method{BaseQ{}, PTQ4ViT{}, APQViT{}, FQViT{}, BiScaled{}} {
		for _, site := range []vit.Site{
			{Name: "attn.softmax_out", Kind: vit.KindGEMMIn},
			{Name: "mlp.gelu_out", Kind: vit.KindGEMMIn},
			{Name: "resid1.out", Kind: vit.KindActivation},
		} {
			samples := xs
			if isPostSoftmax(site) {
				samples = probs
			}
			tag, data, err := ptq.MarshalQuantizer(meth.CalibrateActivation(statsFor(site, samples, 4), 6))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(tag, data)
		}
	}
	f.Add("uniform", make([]byte, 12)) // the retired tag: unknown

	f.Fuzz(func(t *testing.T, tag string, data []byte) {
		q, err := decodeRecord(tag, data)
		if err != nil {
			return
		}
		tag2, data2, err := ptq.MarshalQuantizer(q)
		if err != nil || tag2 != tag || !bytes.Equal(data2, data) {
			t.Fatalf("%s %x decodes to %T, which re-marshals to %s %x (err %v)", tag, data, q, tag2, data2, err)
		}
		n := len(recordEdgeInputs)
		out := q.Apply(tensor.FromSlice(append([]float64(nil), recordEdgeInputs...), n))
		if _, ok := q.(log2Quantizer); ok {
			for i, v := range recordEdgeInputs {
				if math.IsNaN(v) && out.Data()[i] != 0 {
					t.Fatalf("log2 record %x maps NaN to %v, want 0", data, out.Data()[i])
				}
			}
		}
		q.Apply(tensor.FromSlice(append([]float64(nil), recordEdgeInputs...), n/4, 4))
	})
}
