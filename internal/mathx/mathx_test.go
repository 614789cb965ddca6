package mathx

import (
	"math"
	"testing"
)

func TestGeluKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0},
		{1, 0.841345},
		{-1, -0.158655},
		{3, 2.995950},
		{-3, -0.004050},
	}
	for _, c := range cases {
		if got := Gelu(c.x); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("Gelu(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestGeluLowerBound(t *testing.T) {
	// min GELU ≈ −0.17 at x ≈ −0.7518.
	for x := -6.0; x <= 6.0; x += 0.001 {
		if g := Gelu(x); g < -0.17001 {
			t.Fatalf("Gelu(%v) = %v below the analytic minimum", x, g)
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	SoftmaxInPlace(xs)
	var sum float64
	for i, v := range xs {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax[%d] = %v outside (0,1)", i, v)
		}
		sum += v
		if i > 0 && xs[i] <= xs[i-1] {
			t.Fatal("softmax not monotone in its inputs")
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sums to %v", sum)
	}
}

func TestSoftmaxStability(t *testing.T) {
	xs := []float64{1000, 1001, 1002}
	SoftmaxInPlace(xs)
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflowed: %v", xs)
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := []float64{0.3, -1.2, 2.5}
	b := []float64{0.3 + 7, -1.2 + 7, 2.5 + 7}
	SoftmaxInPlace(a)
	SoftmaxInPlace(b)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("softmax not shift invariant at %d", i)
		}
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	SoftmaxInPlace(nil) // must not panic
}
