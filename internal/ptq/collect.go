package ptq

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"quq/internal/rng"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// SiteStats accumulates calibration statistics for one quantization
// point: a bounded reservoir of samples, the exact extremes (the coarse
// quantization ranges must never be set from a lossy sample), and
// per-channel absolute maxima over the tensor's last axis (used by the
// row-wise/power-of-two-factor baselines).
type SiteStats struct {
	Site vit.Site
	// Samples is a uniform reservoir over all observed elements, with
	// the exact Min and Max appended so range-based calibration sees the
	// true extremes. SampleChans[i] is the last-axis channel Samples[i]
	// came from (-1 for the appended extremes), which the index-table
	// and per-channel baselines need.
	Samples     []float64
	SampleChans []int32
	Min, Max    float64
	// LastDim is the tensor's channel width; ChanAbsMax[c] is the
	// largest |x| seen in channel c, and ChanSqSum[c] accumulates Σx²
	// per channel (ChanMeanSq derives E[x²], the diagonal-Hessian proxy
	// the input-aware weight calibration weighs rows with).
	LastDim    int
	ChanAbsMax []float64
	ChanSqSum  []float64
	chanCount  int64

	seen int64
	src  *rng.Source
	cap  int
}

// observe folds one tensor into the statistics via reservoir sampling.
// It walks the tensor row by row, so an element's channel is its column.
func (s *SiteStats) observe(x *tensor.Tensor) {
	d := x.Data()
	cols := x.Dim(x.Rank() - 1)
	if s.LastDim == 0 {
		s.LastDim = cols
		s.ChanAbsMax = make([]float64, cols)
		s.ChanSqSum = make([]float64, cols)
	}
	if s.seen == 0 && len(d) > 0 {
		s.Min, s.Max = d[0], d[0]
	}
	trackChans := cols == s.LastDim
	if trackChans {
		s.chanCount += int64(len(d))
	}
	for r := 0; r < len(d); r += cols {
		for c, v := range d[r : r+cols] {
			if v < s.Min {
				s.Min = v
			}
			if v > s.Max {
				s.Max = v
			}
			ch := int32(-1)
			if trackChans {
				ch = int32(c)
				if a := math.Abs(v); a > s.ChanAbsMax[c] {
					s.ChanAbsMax[c] = a
				}
				s.ChanSqSum[c] += v * v
			}
			s.seen++
			if len(s.Samples) < s.cap {
				s.Samples = append(s.Samples, v)
				s.SampleChans = append(s.SampleChans, ch)
			} else if j := s.src.Intn(int(s.seen)); j < s.cap {
				s.Samples[j] = v
				s.SampleChans[j] = ch
			}
		}
	}
}

// finalize appends the exact extremes to the reservoir.
func (s *SiteStats) finalize() {
	if s.seen == 0 {
		return
	}
	s.Samples = append(s.Samples, s.Min, s.Max)
	s.SampleChans = append(s.SampleChans, -1, -1)
}

// Seen returns the total number of elements observed.
func (s *SiteStats) Seen() int64 { return s.seen }

// Bytes returns the heap the statistics hold: 12 bytes per reservoir
// sample plus the per-channel accumulators. A registry that keeps whole
// sets resident budgets with it.
func (s *SiteStats) Bytes() int64 {
	return int64(8*cap(s.Samples) + 4*cap(s.SampleChans) + 8*(cap(s.ChanAbsMax)+cap(s.ChanSqSum)))
}

// ChanMeanSq returns E[x²] per channel, or nil if no channel-aligned
// data was observed.
func (s *SiteStats) ChanMeanSq() []float64 {
	if s.chanCount == 0 || s.LastDim == 0 {
		return nil
	}
	perChan := float64(s.chanCount) / float64(s.LastDim)
	out := make([]float64, s.LastDim)
	for c, sq := range s.ChanSqSum {
		out[c] = sq / perChan
	}
	return out
}

// collectChunk is how many calibration images Collect stacks into one
// forward: the served request width, past which stacking gains flatten
// (docs/TUNING.md) while the site tensors a chunk retains keep growing.
const collectChunk = 4

// Collect runs the model in FP32 over the calibration images and gathers
// SiteStats for every activation site. maxSamples caps each reservoir
// (0 = 32768).
//
// The images go through m.ForwardBatch collectChunk at a time. The tap
// only records what each site was shown, in first-seen site order; once
// a chunk's forward returns, min(GOMAXPROCS, sites) goroutines observe
// its sites, taking them by an atomic index, while the next chunk's
// forward runs. The statistics are bit-identical to observing one image
// at a time on the forward's goroutine: a stacked site tensor is its
// images' tensors one after another (vit.Model.ForwardBatch), a kept
// tensor keeps the bits the tap was shown (vit.Tap), each site owns its
// reservoir source (seeded by hashKey of its key alone), and each site is
// observed by one goroutine at a time, chunk after chunk, in tap order —
// the observers of chunk k are joined before chunk k+1's are started.
func Collect(m vit.Model, images []*tensor.Tensor, maxSamples int) map[string]*SiteStats {
	if maxSamples <= 0 {
		maxSamples = 32768
	}
	stats := make(map[string]*SiteStats)
	var (
		sites []*SiteStats       // first-seen order
		index = map[string]int{} // site key -> position in sites
		shown [][]*tensor.Tensor // per site, the chunk's tensors in tap order
		obs   sync.WaitGroup     // the observers of the previous chunk
	)
	tap := func(site vit.Site, x *tensor.Tensor) *tensor.Tensor {
		key := site.Key()
		i, ok := index[key]
		if !ok {
			i = len(sites)
			index[key] = i
			st := &SiteStats{Site: site, cap: maxSamples, src: rng.New(hashKey(key))}
			stats[key] = st
			sites = append(sites, st)
			shown = append(shown, nil)
		}
		shown[i] = append(shown[i], x)
		return x
	}
	for lo := 0; lo < len(images); lo += collectChunk {
		m.ForwardBatch(images[lo:min(lo+collectChunk, len(images))], vit.ForwardOpts{Tap: tap})
		obs.Wait()
		observeSites(&obs, sites, shown)
		shown = make([][]*tensor.Tensor, len(sites))
	}
	obs.Wait()
	for _, st := range sites {
		st.finalize()
	}
	return stats
}

// observeSites starts min(GOMAXPROCS, len(sites)) goroutines, tracked by
// wg, that fold shown[i] into sites[i] in order, one site per goroutine
// at a time.
func observeSites(wg *sync.WaitGroup, sites []*SiteStats, shown [][]*tensor.Tensor) {
	var next atomic.Int64
	for w := min(runtime.GOMAXPROCS(0), len(sites)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(sites); i = int(next.Add(1) - 1) {
				for _, x := range shown[i] {
					sites[i].observe(x)
				}
			}
		}()
	}
}

// hashKey derives a deterministic reservoir seed from a site key (FNV-1a).
func hashKey(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
