package sfu

import (
	"math"
	"testing"

	"quq/internal/mathx"
	"quq/internal/rng"
)

func TestFixedPointRoundTrip(t *testing.T) {
	for _, x := range []float64{0, 1, -1, 0.5, -3.25, 100.125} {
		if got := fromFixed(ToFixed(x)); math.Abs(got-x) > 1.0/float64(One) {
			t.Errorf("round trip %v -> %v", x, got)
		}
	}
}

func TestExp2NegAccuracy(t *testing.T) {
	for x := 0.0; x >= -20; x -= 0.01 {
		got := fromFixed(Exp2Neg(ToFixed(x)))
		want := math.Pow(2, x)
		if math.Abs(got-want) > 0.01*want+2e-4 {
			t.Fatalf("Exp2Neg(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestExp2NegEdges(t *testing.T) {
	if Exp2Neg(0) != One {
		t.Fatalf("2^0 = %v", fromFixed(Exp2Neg(0)))
	}
	if Exp2Neg(ToFixed(5)) != One {
		t.Fatal("positive inputs must clamp to 1")
	}
	if Exp2Neg(ToFixed(-100)) != 0 {
		t.Fatal("deep underflow must return 0")
	}
}

func TestSoftmaxMatchesFloat(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		n := 2 + src.Intn(64)
		xs := make([]int64, n)
		ref := make([]float64, n)
		for i := range xs {
			v := src.Gauss(0, 4)
			ref[i] = v
			xs[i] = ToFixed(v)
		}
		mathx.SoftmaxInPlace(ref)
		out := make([]int64, n)
		Softmax(out, xs)
		var sum int64
		for i, o := range out {
			if diff := math.Abs(fromFixed(o) - ref[i]); diff > 0.01 {
				t.Fatalf("trial %d: p[%d] = %v, want %v", trial, i, fromFixed(o), ref[i])
			}
			sum += o
		}
		if math.Abs(fromFixed(sum)-1) > 0.01 {
			t.Fatalf("integer softmax sums to %v", fromFixed(sum))
		}
	}
}

func TestSoftmaxDegenerateRow(t *testing.T) {
	// All logits deeply negative relative to one spike: mass must land
	// on the maximum, without dividing by zero.
	xs := []int64{ToFixed(-10000), ToFixed(0), ToFixed(-10000)}
	out := make([]int64, 3)
	Softmax(out, xs)
	if out[1] < One*99/100 {
		t.Fatalf("spike got %v of the mass", fromFixed(out[1]))
	}
}

func TestSoftmaxMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Softmax(make([]int64, 2), make([]int64, 3))
}

func TestSigmoidAccuracy(t *testing.T) {
	for x := -8.0; x <= 8; x += 0.05 {
		got := fromFixed(Sigmoid(ToFixed(x)))
		want := 1 / (1 + math.Exp(-x))
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("Sigmoid(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestGELUAccuracy(t *testing.T) {
	// The sigmoid approximation of GELU is itself ≈1.5e-2 accurate; the
	// integer kernel must stay within 0.02 absolute + 2% relative of the
	// exact GELU over the activation range.
	for x := -6.0; x <= 6; x += 0.05 {
		got := fromFixed(GELU(ToFixed(x)))
		want := mathx.Gelu(x)
		if math.Abs(got-want) > 0.02+0.02*math.Abs(want) {
			t.Fatalf("GELU(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestISqrt(t *testing.T) {
	for _, v := range []int64{0, 1, 2, 3, 4, 15, 16, 17, 1 << 30, 1<<40 + 12345} {
		got := ISqrt(v)
		if got*got > v || (got+1)*(got+1) <= v {
			t.Fatalf("ISqrt(%d) = %d", v, got)
		}
	}
}

func TestISqrtPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ISqrt(-1)
}

func TestLayerNormMatchesFloat(t *testing.T) {
	src := rng.New(2)
	for trial := 0; trial < 100; trial++ {
		n := 4 + src.Intn(96)
		xs := make([]int64, n)
		gamma := make([]int64, n)
		beta := make([]int64, n)
		fx := make([]float64, n)
		fg := make([]float64, n)
		fb := make([]float64, n)
		for i := range xs {
			fx[i] = src.Gauss(0, 3)
			fg[i] = 1 + src.Gauss(0, 0.2)
			fb[i] = src.Gauss(0, 0.1)
			xs[i] = ToFixed(fx[i])
			gamma[i] = ToFixed(fg[i])
			beta[i] = ToFixed(fb[i])
		}
		// Float reference.
		var mean float64
		for _, v := range fx {
			mean += v
		}
		mean /= float64(n)
		var ss float64
		for _, v := range fx {
			d := v - mean
			ss += d * d
		}
		sigma := math.Sqrt(ss / float64(n))
		out := make([]int64, n)
		LayerNorm(out, xs, gamma, beta)
		for i := range out {
			want := (fx[i]-mean)/sigma*fg[i] + fb[i]
			if math.Abs(fromFixed(out[i])-want) > 0.03+0.01*math.Abs(want) {
				t.Fatalf("trial %d: LN[%d] = %v, want %v", trial, i, fromFixed(out[i]), want)
			}
		}
	}
}

func TestLayerNormConstantRow(t *testing.T) {
	xs := []int64{ToFixed(2), ToFixed(2), ToFixed(2), ToFixed(2)}
	gamma := []int64{One, One, One, One}
	beta := []int64{0, 0, 0, 0}
	out := make([]int64, 4)
	LayerNorm(out, xs, gamma, beta) // must not divide by zero
	for _, v := range out {
		if math.Abs(fromFixed(v)) > 0.01 {
			t.Fatalf("constant row normalized to %v", fromFixed(v))
		}
	}
}

func TestLayerNormMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LayerNorm(make([]int64, 2), make([]int64, 2), make([]int64, 3), make([]int64, 2))
}

// fromFixed converts fixed point back to float.
func fromFixed(v int64) float64 {
	return float64(v) / float64(One)
}
