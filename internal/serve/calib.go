package serve

import (
	"context"
	"sync"
	"time"

	"quq/internal/ptq"
	"quq/internal/vit"
)

// Calibration is a small DAG, and the registry builds each node once:
//
//	statistics (per config)                   ptq.Collect over the base's calibration set
//	  ├─ weights       (per config, method, bits)  ptq.QuantizeWeights
//	  ├─ GEMM-in sites (per config, method, bits)  ptq.CalibrateSites, vit.KindGEMMIn
//	  └─ other sites   (per config, method, bits)  ptq.CalibrateSites, vit.KindActivation
//	       └─ entry (per key)                      ptq.Assemble: Partial = weights + GEMM-in, Full adds the rest
//
// The three family nodes are small next to the entries that point at
// them — both regimes share one weight clone — and live as long as the
// registry. The statistics are the opposite: tens of megabytes that only
// node builds read, so they are resident only while a build for their
// config is in flight, plus statsGrace for the sibling about to arrive.
// Collect is deterministic, so a key that arrives later re-collects and
// builds exactly what it would have built from the released set.

// statsGrace is how long a config's statistics outlive the last build
// that pinned them. A burst of cold keys — a client walking bit-widths
// and regimes of one model — arrives seconds apart at most; after that
// the memory is worth more than the ≈0.6 s a ViT-S re-collection costs.
const statsGrace = 5 * time.Second

// familyKey names what both regimes of a selection share.
type familyKey struct {
	Config, Method string
	Bits           int
}

// Calibration node kinds, indexing Registry.nodeRuns.
const (
	weightsNode = iota
	gemmInNode
	actsNode
	numNodes
)

// node is one lazily-built calibration result: the first get builds it,
// one that arrives mid-build waits for that build, later ones read it.
// Builds cannot fail — everything fallible (the BuildHook, loading the
// base model) happens before a key reaches its nodes — so there is no
// error to cache or evict.
type node[T any] struct {
	once sync.Once
	val  T
}

func (n *node[T]) get(build func() T) T {
	n.once.Do(func() { n.val = build() })
	return n.val
}

// family is the calibration state of one (config, method, bits). Partial
// keys never touch acts.
type family struct {
	weights      node[*ptq.Weights]
	gemmIn, acts node[map[string]ptq.TensorQuantizer]
}

// statsSlot is one collection of a config's statistics: ready closes
// once sites is set.
type statsSlot struct {
	ready chan struct{}
	sites map[string]*ptq.SiteStats
	bytes int64
}

// calibrate assembles key's model from its family's nodes, building the
// ones no sibling has built yet. The base's statistics are pinned for
// the duration, so a key that builds several nodes collects at most once
// however short the grace.
func (r *Registry) calibrate(be *baseEntry, key Key) *ptq.QuantizedModel {
	fk := familyKey{key.Config, key.Method, key.Bits}
	r.mu.Lock()
	fam := r.families[fk]
	if fam == nil {
		fam = &family{}
		r.families[fk] = fam
	}
	be.pins++
	be.idle++
	r.mu.Unlock()
	defer r.unpin(be)

	// Every node builder gets a method of its own: QUQMethod carries the
	// weight-parameter callback as mutable state.
	sites := func(n *node[map[string]ptq.TensorQuantizer], which int, kind vit.SiteKind) map[string]ptq.TensorQuantizer {
		return n.get(func() map[string]ptq.TensorQuantizer {
			r.nodeRuns[which].Add(1)
			method, _ := newMethod(key.Method)
			return ptq.CalibrateSites(r.siteStats(be), kind, method, key.Bits)
		})
	}
	gemmIn := sites(&fam.gemmIn, gemmInNode, vit.KindGEMMIn)
	var acts map[string]ptq.TensorQuantizer
	if key.Regime == ptq.Full {
		acts = sites(&fam.acts, actsNode, vit.KindActivation)
	}
	w := fam.weights.get(func() *ptq.Weights {
		r.nodeRuns[weightsNode].Add(1)
		method, _ := newMethod(key.Method)
		return ptq.QuantizeWeights(be.model, r.siteStats(be), method, key.Bits)
	})
	return ptq.Assemble(w, key.Regime, gemmIn, acts)
}

// siteStats returns the statistics of a base the caller has pinned,
// collecting them if they are not resident; concurrent callers share one
// collection. The result is read-only and valid until the caller unpins.
func (r *Registry) siteStats(be *baseEntry) map[string]*ptq.SiteStats {
	r.mu.Lock()
	slot, collect := be.stats, false
	if slot == nil {
		slot, collect = &statsSlot{ready: make(chan struct{})}, true
		be.stats = slot
	}
	r.mu.Unlock()
	if !collect {
		<-slot.ready
		return slot.sites
	}
	slot.sites = ptq.Collect(be.model, be.calib, r.opts.MaxSamplesPerSite)
	for _, st := range slot.sites {
		slot.bytes += st.Bytes()
	}
	if r.met != nil {
		r.met.CalibCollects.Inc()
		r.met.CalibStatsBytes.Add(slot.bytes)
	}
	close(slot.ready)
	return slot.sites
}

// holdsStats reports whether the config's statistics are resident (or
// being collected) — the lifetime tests' view.
func (r *Registry) holdsStats(config string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	be := r.bases[config]
	return be != nil && be.stats != nil
}

// unpin drops one build's hold on a base's statistics. The last one out
// arms the release timer when there is something resident to release.
func (r *Registry) unpin(be *baseEntry) {
	r.mu.Lock()
	be.pins--
	arm := be.pins == 0 && be.stats != nil
	armedAt := be.idle
	r.mu.Unlock()
	if arm {
		r.builds.Add(1)
		go r.releaseStats(r.stop, be, armedAt)
	}
}

// releaseStats waits out the grace — or ctx, which Drain cancels,
// whichever comes first — and frees the base's statistics unless a build
// pinned them meanwhile.
func (r *Registry) releaseStats(ctx context.Context, be *baseEntry, armedAt uint64) {
	defer r.builds.Done()
	//quq:errdrop-ok cancellation only cuts the grace short; the release below runs either way
	_ = r.opts.Clock.Sleep(ctx, statsGrace)
	r.mu.Lock()
	defer r.mu.Unlock()
	if be.pins > 0 || be.idle != armedAt || be.stats == nil {
		return
	}
	if r.met != nil {
		r.met.CalibStatsBytes.Add(-be.stats.bytes)
	}
	be.stats = nil
}
