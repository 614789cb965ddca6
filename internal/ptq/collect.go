package ptq

import (
	"math"

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

// Collect runs the model in FP32 over the calibration images and gathers
// SiteStats for every activation site. maxSamples caps each reservoir
// (0 = 32768).
func Collect(m vit.Model, images []*tensor.Tensor, maxSamples int) map[string]*SiteStats {
	if maxSamples <= 0 {
		maxSamples = 32768
	}
	stats := make(map[string]*SiteStats)
	tap := func(site vit.Site, x *tensor.Tensor) *tensor.Tensor {
		key := site.Key()
		st, ok := stats[key]
		if !ok {
			st = &SiteStats{
				Site: site,
				cap:  maxSamples,
				src:  rng.New(hashKey(key)),
			}
			stats[key] = st
		}
		st.observe(x)
		return x
	}
	for _, img := range images {
		m.Forward(img, vit.ForwardOpts{Tap: tap})
	}
	for _, st := range stats {
		st.finalize()
	}
	return stats
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
