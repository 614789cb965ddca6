package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/rng"
	"quq/internal/serve"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// keySpec selects one registry key; the method is always QUQ.
type keySpec struct {
	Model  string
	Bits   int
	Regime string
}

func (k keySpec) key() serve.Key {
	sk, err := serve.KeyFromWire(k.Model, "QUQ", k.Bits, k.Regime)
	if err != nil {
		panic(fmt.Sprintf("bench: workload names a key the registry rejects: %v", err))
	}
	return sk
}

func (k keySpec) String() string { return k.key().String() }

func (k keySpec) config() vit.Config {
	for _, cfg := range append([]vit.Config{vit.ViTNano}, vit.ZooConfigs...) {
		if cfg.Name == k.Model {
			return cfg
		}
	}
	panic("bench: unknown model " + k.Model)
}

// wireBody is the classify/quantize request body.
type wireBody struct {
	Model  string      `json:"model"`
	Method string      `json:"method"`
	Bits   int         `json:"bits"`
	Regime string      `json:"regime"`
	Images [][]float64 `json:"images,omitempty"`
}

// wireResponse is the part of a classify response the benchmark checks.
type wireResponse struct {
	Key     string `json:"key"`
	Results []struct {
		ArgMax int       `json:"argmax"`
		Logits []float64 `json:"logits"`
	} `json:"results"`
}

// inputs is everything a workload sends, made from the seed alone: per
// key a pool of images, the classify bodies that carry them (encoded
// once, so the generator costs the measured windows almost nothing) and
// the quantize body. Body j of a key carries images j*per .. j*per+per-1
// of that key's pool.
type inputs struct {
	keys     []keySpec
	per      int
	images   [][]*tensor.Tensor
	bodies   [][][]byte
	quantize [][]byte
	// expected[k][i] is qm.Forward on images[k][i], filled by expect once
	// the keys are quantized; expectedFloat is the same through the float
	// GEMM engine, which differs only when the integer engine serves.
	expected      [][][]float64
	expectedFloat [][][]float64
}

func makeInputs(src *rng.Source, keys []keySpec, per, bodiesPerKey int) (*inputs, error) {
	in := &inputs{keys: keys, per: per}
	for _, k := range keys {
		cfg := k.config()
		pool := make([]*tensor.Tensor, per*bodiesPerKey)
		for i := range pool {
			pool[i] = data.Image(cfg.Channels, cfg.ImageSize, src)
		}
		var bodies [][]byte
		for j := 0; j < bodiesPerKey; j++ {
			wb := wireBody{Model: k.Model, Method: "QUQ", Bits: k.Bits, Regime: k.Regime}
			for _, img := range pool[j*per : (j+1)*per] {
				wb.Images = append(wb.Images, img.Data())
			}
			b, err := json.Marshal(wb)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
		qb, err := json.Marshal(wireBody{Model: k.Model, Method: "QUQ", Bits: k.Bits, Regime: k.Regime})
		if err != nil {
			return nil, err
		}
		in.images = append(in.images, pool)
		in.bodies = append(in.bodies, bodies)
		in.quantize = append(in.quantize, qb)
	}
	return in, nil
}

// subset returns the inputs of the keys at idx, in that order.
func (in *inputs) subset(idx []int) *inputs {
	out := &inputs{per: in.per}
	for _, k := range idx {
		out.keys = append(out.keys, in.keys[k])
		out.images = append(out.images, in.images[k])
		out.bodies = append(out.bodies, in.bodies[k])
		out.quantize = append(out.quantize, in.quantize[k])
		out.expected = append(out.expected, in.expected[k])
		out.expectedFloat = append(out.expectedFloat, in.expectedFloat[k])
	}
	return out
}

// floatEngine forces the float GEMM path through the engine seam, so a
// model serving on the integer engine can be asked for its float logits.
type floatEngine struct{}

func (floatEngine) Linear(_ vit.Site, l *vit.Linear, dst, x *tensor.Tensor) bool {
	l.ApplyInto(dst, x)
	return true
}

// expect computes the reference logits for every image of every key
// from the quantized models the stack actually serves.
func (in *inputs) expect(models []*ptq.QuantizedModel) {
	in.expected = make([][][]float64, len(in.keys))
	in.expectedFloat = make([][][]float64, len(in.keys))
	for k, qm := range models {
		for _, img := range in.images[k] {
			out := qm.Forward(img).Data()
			in.expected[k] = append(in.expected[k], out)
			if qm.IntPath() {
				out = qm.ForwardOpts(img, vit.ForwardOpts{Engine: floatEngine{}}).Data()
			}
			in.expectedFloat[k] = append(in.expectedFloat[k], out)
		}
	}
}

// grid16 snaps a logit onto the 2^-16 grid, the resolution on which the
// integer and float GEMM engines are documented to agree.
func grid16(v float64) float64 {
	return math.Ldexp(math.RoundToEven(math.Ldexp(v, 16)), -16) + 0 // +0 folds -0 into 0
}

// checkIntVsFloat compares the served logits of every image with the
// float engine's on the 2^-16 grid.
func (in *inputs) checkIntVsFloat() error {
	for k := range in.keys {
		for i, got := range in.expected[k] {
			for j, v := range got {
				if grid16(v) != grid16(in.expectedFloat[k][i][j]) {
					return fmt.Errorf("%s image %d logit %d: served %v, float engine %v differ on the 2^-16 grid", in.keys[k], i, j, v, in.expectedFloat[k][i][j])
				}
			}
		}
	}
	return nil
}

// verify checks one classify response bit for bit against the reference
// logits of the images its body carried. JSON round-trips float64
// exactly, so any difference is a different computation.
func (in *inputs) verify(key, body int, status int, resp []byte) error {
	if status != 200 {
		return fmt.Errorf("%s: status %d: %.120s", in.keys[key], status, resp)
	}
	var wr wireResponse
	if err := json.Unmarshal(resp, &wr); err != nil {
		return fmt.Errorf("%s: decoding response: %w", in.keys[key], err)
	}
	if wr.Key != in.keys[key].String() || len(wr.Results) != in.per {
		return fmt.Errorf("%s: response is for %s with %d results, want %d", in.keys[key], wr.Key, len(wr.Results), in.per)
	}
	for i, res := range wr.Results {
		want := in.expected[key][body*in.per+i]
		if len(res.Logits) != len(want) {
			return fmt.Errorf("%s: %d logits, want %d", in.keys[key], len(res.Logits), len(want))
		}
		for j, v := range res.Logits {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				return fmt.Errorf("%s body %d image %d logit %d: got %v, want %v", in.keys[key], body, i, j, v, want[j])
			}
		}
	}
	return nil
}

// goldenKey is the committed fingerprint of one key's float logits over
// its image pool at the default seed.
type goldenKey struct {
	ArgMax []int  `json:"argmax"`
	SHA256 string `json:"sha256"`
}

// fingerprint reduces the float-engine logits to what golden.json holds.
func (in *inputs) fingerprint() map[string]goldenKey {
	out := make(map[string]goldenKey, len(in.keys))
	for k, key := range in.keys {
		var bits []byte
		g := goldenKey{}
		for _, logits := range in.expectedFloat[k] {
			g.ArgMax = append(g.ArgMax, tensor.FromSlice(logits, len(logits)).ArgMax())
			for _, v := range logits {
				bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(v))
			}
		}
		sum := sha256.Sum256(bits)
		g.SHA256 = hex.EncodeToString(sum[:])
		out[key.String()] = g
	}
	return out
}

// schedEntry is one request of a schedule: when it is due (open loop
// only, from the phase start) and which pre-encoded body it sends.
type schedEntry struct {
	Due  time.Duration
	Key  int
	Body int
}

// zipf returns popularity weights 1/rank over n keys, in key order.
func zipf(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(i+1)
	}
	return w
}

func pick(src *rng.Source, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	u := src.Float64() * total
	for i, w := range weights {
		if u < w {
			return i
		}
		u -= w
	}
	return len(weights) - 1
}

// openSchedule draws Poisson arrivals at rate req/s over dur, each on a
// Zipf-popular key with a uniformly drawn body.
func openSchedule(src *rng.Source, in *inputs, rate float64, dur time.Duration) []schedEntry {
	weights := zipf(len(in.keys))
	var out []schedEntry
	for t := src.Exp(1 / rate); t < dur.Seconds(); t += src.Exp(1 / rate) {
		k := pick(src, weights)
		out = append(out, schedEntry{Due: time.Duration(t * float64(time.Second)), Key: k, Body: src.Intn(len(in.bodies[k]))})
	}
	return out
}

// closedSequence draws the n requests one closed-loop client cycles
// through.
func closedSequence(src *rng.Source, in *inputs, n int) []schedEntry {
	weights := zipf(len(in.keys))
	out := make([]schedEntry, n)
	for i := range out {
		k := pick(src, weights)
		out[i] = schedEntry{Key: k, Body: src.Intn(len(in.bodies[k]))}
	}
	return out
}
