package vit

import (
	"fmt"
	"strconv"
	"strings"

	"quq/internal/tensor"
)

// SiteKind classifies a quantization point according to the paper's
// Figure 1 colour coding.
type SiteKind int

const (
	// KindGEMMIn marks activations that feed a GEMM (the figure's green
	// points): these are quantized in both partial and full quantization.
	KindGEMMIn SiteKind = iota
	// KindActivation marks the remaining activations (the figure's red
	// points: residual-connection, LayerNorm, Softmax and GELU inputs):
	// quantized only under full quantization.
	KindActivation
	// KindWeight marks GEMM weight tensors, quantized in both regimes.
	KindWeight
)

func (k SiteKind) String() string {
	switch k {
	case KindGEMMIn:
		return "gemm-in"
	case KindActivation:
		return "activation"
	case KindWeight:
		return "weight"
	}
	return fmt.Sprintf("SiteKind(%d)", int(k))
}

// Site names one quantization point in a model. Block is the global block
// index (-1 for stem and head sites); Name is stable across runs and
// identifies the point within the block.
type Site struct {
	Block int
	Name  string
	Kind  SiteKind
}

// Key returns a stable map key for the site.
func (s Site) Key() string {
	return fmt.Sprintf("b%02d.%s", s.Block, s.Name)
}

// ParseSiteKey is Key's inverse: the block index and name of the site
// that prints as key. ok is false for a string Key cannot produce.
func ParseSiteKey(key string) (block int, name string, ok bool) {
	head, name, found := strings.Cut(key, ".")
	if !found || !strings.HasPrefix(head, "b") {
		return 0, "", false
	}
	block, err := strconv.Atoi(head[1:])
	if err != nil || (Site{Block: block, Name: name}).Key() != key {
		return 0, "", false
	}
	return block, name, true
}

func (s Site) String() string { return s.Key() + "[" + s.Kind.String() + "]" }

// SiteQuantizer fake-quantizes, in place, the tensor flowing through a
// site. The forward calls it only on tensors it allocated itself and
// still owns, so the quantizer may overwrite x freely; it must not
// retain x past the call, which may be recycled as soon as the forward
// is done with it. A site the quantizer does not cover is left as is.
type SiteQuantizer func(site Site, x *tensor.Tensor)

// Tap observes — and may replace — the tensor flowing through a site.
// Returning x unchanged makes the tap a pure observer (calibration);
// returning a different tensor substitutes it for the rest of the pass.
// A tap may retain x: a forward given a Tap allocates every tensor a
// tap can see afresh, never recycles it, and never writes it once the
// tap has returned (the SFUs work on a copy), so a kept x holds the bits
// the tap was shown. A forward of B images calls the tap once per site
// with the stacked tensor, the B images' rows one after another. A nil
// Tap is the identity.
type Tap func(site Site, x *tensor.Tensor) *tensor.Tensor

// apply routes a tensor through the tap, handling the nil case.
func (t Tap) apply(site Site, x *tensor.Tensor) *tensor.Tensor {
	if t == nil {
		return x
	}
	if y := t(site, x); y != nil {
		return y
	}
	return x
}

// AttnSink receives each block's attention probability tensor
// ([heads*T, T] rows are softmax distributions; a forward of B images
// hands over [B*heads*T, T], image after image) during a forward pass;
// the Figure 7 experiment uses it to extract attention maps. The sink
// is shown the tensor the pass goes on with: in a quantized forward the
// "attn.softmax_out" quantizer rewrites it in place right after the sink
// returns, so a sink that keeps it past the call holds the quantized
// probabilities. Figure 7 reads it synchronously, inside the call.
type AttnSink func(block int, attn *tensor.Tensor)

// GEMMEngine substitutes the computation of weight GEMMs during a
// forward pass. Linear is offered every weight-layer application (the
// same sites ForEachWeight enumerates, identified by their KindWeight
// site): if the engine computes xW+b into dst and returns true, the
// float path is skipped; returning false falls back to the layer's
// ApplyInto. dst arrives with the correct shape [x rows, l.Out()] and
// unspecified contents. The PTQ integer path implements this to run
// weight GEMMs on resident integer operands without rehydrating weights
// to float64.
type GEMMEngine interface {
	Linear(site Site, l *Linear, dst, x *tensor.Tensor) bool
}

// ForwardOpts bundles the optional seams of a forward pass.
type ForwardOpts struct {
	// Quantize, when non-nil, runs at every site before Tap: quantized
	// inference is this seam, observation is Tap's.
	Quantize SiteQuantizer
	Tap      Tap
	Attn     AttnSink
	// Engine, when non-nil, substitutes weight-GEMM computation; see
	// GEMMEngine.
	Engine GEMMEngine
}

// site passes x through the site's two seams — the in-place quantizer,
// then the observing tap — and returns the tensor the pass continues
// with (x itself unless a tap replaced it).
//
//quq:hotpath runs at every site of every forward; the seams work on the tensor they are handed
func (o *ForwardOpts) site(site Site, x *tensor.Tensor) *tensor.Tensor {
	if o.Quantize != nil {
		o.Quantize(site, x)
	}
	return o.Tap.apply(site, x)
}

// scratch is where one forward's intermediates come from. With neither a
// Tap nor an AttnSink nobody outside the forward ever sees them, so they
// are carved from the arena and handed back the moment they are dead
// (pooled); with either present a caller may keep what it was shown, so
// they are ordinary allocations and put is a no-op. Scratch no seam can
// see (the fused QKV output, the per-head packs) uses ar directly. The
// zero scratch allocates.
type scratch struct {
	ar     *tensor.Arena
	pooled bool
}

// newScratch checks an arena out for one forward; release returns it.
func newScratch(opts ForwardOpts) scratch {
	return scratch{ar: tensor.GetArena(), pooled: opts.Tap == nil && opts.Attn == nil}
}

func (s scratch) release() { s.ar.Release() }

// uninit returns a tensor the caller overwrites completely: recycled
// with stale contents when pooled, freshly zeroed otherwise.
func (s scratch) uninit(shape ...int) *tensor.Tensor {
	if s.pooled {
		return s.ar.NewUninit(shape...)
	}
	return tensor.New(shape...)
}

// writable returns t for the forward to rewrite in place: t itself when
// pooled, a copy otherwise, so a tap that kept t still holds what it was
// shown. The SFUs, which overwrite their input, go through it.
func (s scratch) writable(t *tensor.Tensor) *tensor.Tensor {
	if s.pooled {
		return t
	}
	return t.Clone()
}

// put recycles a pooled tensor the forward is done with.
func (s scratch) put(t *tensor.Tensor) {
	if s.pooled {
		s.ar.Put(t)
	}
}

// applyLinear routes one weight-layer application through the engine
// seam, falling back to the float ApplyInto when no engine is installed
// or the engine declines the site.
func applyLinear(opts ForwardOpts, site Site, l *Linear, dst, x *tensor.Tensor) *tensor.Tensor {
	if opts.Engine != nil && opts.Engine.Linear(site, l, dst, x) {
		return dst
	}
	return l.ApplyInto(dst, x)
}
