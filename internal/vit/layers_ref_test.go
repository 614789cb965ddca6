package vit

import (
	"math"
	"testing"

	"quq/internal/mathx"
	"quq/internal/rng"
	"quq/internal/tensor"
)

// refBlockForward is a line-for-line replica of Block.Forward as it
// existed before the kernel layer: scalar i-k-j GEMM + separate bias
// pass for the linears, strided per-head dot products for the scores,
// and the zero-skipping accumulation loop for the context. It is the
// oracle that pins the refactored attention path (packed heads, tiled
// kernels, fused bias, arena scratch) to the exact bits the old code
// produced.
func refBlockForward(b *Block, x *tensor.Tensor, nSeq int) *tensor.Tensor {
	dim := x.Dim(1)
	s := x.Dim(0)
	t := s / nSeq
	heads := b.Heads
	dh := dim / heads
	scale := 1 / math.Sqrt(float64(dh))

	refLinear := func(l *Linear, in *tensor.Tensor) *tensor.Tensor {
		m, k, n := in.Dim(0), in.Dim(1), l.Out()
		out := tensor.New(m, n)
		for i := 0; i < m; i++ {
			arow := in.Row(i)
			orow := out.Row(i)
			for kk := 0; kk < k; kk++ {
				av := arow[kk]
				if av == 0 {
					continue
				}
				brow := l.W.Row(kk)
				for j := range brow {
					orow[j] += av * brow[j]
				}
			}
		}
		return out.AddRowVector(l.B)
	}

	h := b.LN1.Apply(x)
	qkvOut := refLinear(b.QKV, h)

	q, k, v := tensor.New(s, dim), tensor.New(s, dim), tensor.New(s, dim)
	for r := 0; r < s; r++ {
		row := qkvOut.Row(r)
		copy(q.Row(r), row[:dim])
		copy(k.Row(r), row[dim:2*dim])
		copy(v.Row(r), row[2*dim:])
	}

	scores := tensor.New(nSeq*heads*t, t)
	for sq := 0; sq < nSeq; sq++ {
		for hd := 0; hd < heads; hd++ {
			for i := 0; i < t; i++ {
				qrow := q.Row(sq*t + i)[hd*dh : (hd+1)*dh]
				srow := scores.Row((sq*heads+hd)*t + i)
				for j := 0; j < t; j++ {
					krow := k.Row(sq*t + j)[hd*dh : (hd+1)*dh]
					var dot float64
					for e := range qrow {
						dot += qrow[e] * krow[e]
					}
					srow[j] = dot * scale
				}
			}
		}
	}
	for r := 0; r < scores.Dim(0); r++ {
		mathx.SoftmaxInPlace(scores.Row(r))
	}

	ctx := tensor.New(s, dim)
	for sq := 0; sq < nSeq; sq++ {
		for hd := 0; hd < heads; hd++ {
			for i := 0; i < t; i++ {
				prow := scores.Row((sq*heads+hd)*t + i)
				crow := ctx.Row(sq*t + i)[hd*dh : (hd+1)*dh]
				for j := 0; j < t; j++ {
					p := prow[j]
					if p == 0 {
						continue
					}
					vrow := v.Row(sq*t + j)[hd*dh : (hd+1)*dh]
					for e := range crow {
						crow[e] += p * vrow[e]
					}
				}
			}
		}
	}
	o := refLinear(b.Proj, ctx)

	x = x.Add(o)
	h = b.LN2.Apply(x)
	h = refLinear(b.FC1, h)
	h.Apply(mathx.Gelu)
	h = refLinear(b.FC2, h)
	return x.Add(h)
}

// TestBlockForwardMatchesNaiveReference pins the kernel-layer block
// (packed per-head GEMMs, bias-fused epilogue, arena scratch) to the
// pre-kernel-layer scalar loops, bit for bit, across single- and
// multi-sequence layouts and with the intra-op budget raised.
func TestBlockForwardMatchesNaiveReference(t *testing.T) {
	cases := []struct {
		name          string
		dim, heads    int
		nSeq, tokens  int
		mlpRatio, sd1 int
	}{
		{"vit-nano-shape", 48, 3, 1, 17, 4, 1},
		{"multi-window", 32, 4, 3, 8, 2, 2},
		{"single-token", 24, 2, 1, 1, 4, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := rng.New(uint64(100 + tc.sd1))
			b := NewBlock(tc.dim, tc.heads, tc.mlpRatio)
			for _, l := range []*Linear{b.QKV, b.Proj, b.FC1, b.FC2} {
				l.W.Apply(func(float64) float64 { return src.Gauss(0, 0.3) })
				for i := range l.B {
					l.B[i] = src.Gauss(0, 0.1)
				}
			}
			x := tensor.New(tc.nSeq*tc.tokens, tc.dim)
			for i := range x.Data() {
				// Plant zeros to exercise the reference zero-skip paths.
				if src.Float64() < 0.1 {
					continue
				}
				x.Data()[i] = src.Laplace(0.7)
			}

			want := refBlockForward(b, x.Clone(), tc.nSeq)
			got := b.Forward(x.Clone(), tc.nSeq, 0, ForwardOpts{})

			t.Cleanup(tensor.GrantWorkers(3).Release)
			gotPar := b.Forward(x.Clone(), tc.nSeq, 0, ForwardOpts{})

			for i, w := range want.Data() {
				if math.Float64bits(got.Data()[i]) != math.Float64bits(w) {
					t.Fatalf("element %d: kernel block %v, reference %v", i, got.Data()[i], w)
				}
				if math.Float64bits(gotPar.Data()[i]) != math.Float64bits(w) {
					t.Fatalf("element %d: parallel kernel block %v, reference %v", i, gotPar.Data()[i], w)
				}
			}
		})
	}
}
