package tensor

import (
	"fmt"
	"math"
	"testing"

	"quq/internal/rng"
)

// randFloats fills an n-element slice with finite values, planting exact
// zeros (both signs) so the reference kernel's zero-skip path is
// exercised. The determinism contract only covers finite inputs (0·±Inf
// is NaN under one kernel and skipped under the other), which is the
// domain every model tensor lives in.
func randFloats(src *rng.Source, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		switch {
		case src.Float64() < 0.1:
			d[i] = 0
		case src.Float64() < 0.15:
			d[i] = math.Copysign(0, -1)
		default:
			d[i] = src.Gauss(0, 2)
		}
	}
	return d
}

func randTensor(src *rng.Source, m, n int) *Tensor {
	return FromSlice(randFloats(src, m*n), m, n)
}

// randInt64s fills an n-element slice with signed integers, planting
// zeros and occasional full-width values so both the typical QUB range
// (small pre-shifted magnitudes) and the wrap-around regime (int64
// overflow, where bit-exactness mod 2^64 is what the kernels promise)
// are exercised.
func randInt64s(src *rng.Source, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		switch {
		case src.Float64() < 0.1:
			s[i] = 0
		case src.Float64() < 0.15:
			s[i] = int64(src.Uint64()) // full-width: exercises wrap
		default:
			s[i] = int64(src.Intn(1<<22)) - 1<<21
		}
	}
	return s
}

// randNarrowInt64s fills an n-element slice with int32-range values —
// the regime pickIntMicro routes to the narrow micro-kernel — planting
// zeros and the extreme int32 boundary values so the narrow kernel's
// sign handling is exercised at its edges.
func randNarrowInt64s(src *rng.Source, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		switch {
		case src.Float64() < 0.1:
			s[i] = 0
		case src.Float64() < 0.15:
			if src.Float64() < 0.5 {
				s[i] = -1 << 31 // int32 min: narrow, maximal magnitude
			} else {
				s[i] = 1<<31 - 1 // int32 max
			}
		default:
			s[i] = int64(src.Intn(1<<22)) - 1<<21
		}
	}
	return s
}

// sameBits is bit equality for either element type (== would equate
// +0 and −0).
func sameBits[T elem](x, y T) bool {
	if fx, ok := any(x).(float64); ok {
		return math.Float64bits(fx) == math.Float64bits(any(y).(float64))
	}
	return x == y
}

func assertSlicesEqual[T elem](t *testing.T, name string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func assertBitEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	gs, ws := got.Shape(), want.Shape()
	if len(gs) != len(ws) || gs[0] != ws[0] || gs[1] != ws[1] {
		t.Fatalf("%s: shape %v, want %v", name, gs, ws)
	}
	assertSlicesEqual(t, name, got.Data(), want.Data())
}

func assertPanics(t *testing.T, cases map[string]func()) {
	t.Helper()
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// gemmAPI presents one element type's a @ b entry point, oracle and
// operand fills over flat row-major slices, so the shared cases below
// drive float64 and int64 through the same shapes and assertions.
type gemmAPI[T elem] struct {
	name  string
	fills []func(*rng.Source, int) []T
	into  func(dst, a, b []T, m, k, n int)
	ref   func(dst, a, b []T, m, k, n int)
}

var floatAPI = gemmAPI[float64]{
	name:  "MatMulInto",
	fills: []func(*rng.Source, int) []float64{randFloats},
	into: func(dst, a, b []float64, m, k, n int) {
		MatMulInto(FromSlice(dst, m, n), FromSlice(a, m, k), FromSlice(b, k, n))
	},
	ref: func(dst, a, b []float64, m, k, n int) {
		copy(dst, MatMulRef(FromSlice(a, m, k), FromSlice(b, k, n)).Data())
	},
}

// intAPI runs every case on both fills: full-width values take the
// portable micro-kernel, int32-range values the narrow one.
var intAPI = gemmAPI[int64]{
	name:  "IntMatMulInto",
	fills: []func(*rng.Source, int) []int64{randInt64s, randNarrowInt64s},
	into:  IntMatMulInto,
	ref:   IntMatMulRef,
}

// gemmShapes covers the tile interior, every edge-tile combination (m
// not a multiple of 4, n not a multiple of 8), and the degenerate shapes
// (k=0, single row, single column, empty).
var gemmShapes = []struct{ m, k, n int }{
	{0, 3, 3}, {3, 0, 3}, {3, 3, 0},
	{1, 1, 1}, {1, 5, 1}, {5, 1, 1}, {1, 7, 9},
	{4, 4, 4}, {5, 5, 5}, {8, 3, 8}, {7, 2, 3},
	{9, 17, 33}, {17, 16, 17}, {3, 129, 2}, {16, 48, 12},
	{33, 31, 35},
}

// The tile tails, exhaustively: every m mod 4 ∈ {1,2,3} against every
// n mod 8 ∈ {0..7}, behind a full tile and alone — m < 4, where the
// padded rows are all the kernel gets, and n < 8, where the zero-padded
// column panel is — at k = 0 (the micro-kernel's zeroing path), k = 1
// and a forward-sized k. Both element types and both bT forms run the
// table.
func init() {
	for _, k := range []int{0, 1, 96} {
		for mm := 1; mm <= 3; mm++ {
			for nn := 0; nn < nrTile; nn++ {
				gemmShapes = append(gemmShapes,
					struct{ m, k, n int }{mrTile + mm, k, nrTile + nn},
					struct{ m, k, n int }{mm, k, nrTile + nn})
				if nn > 0 {
					gemmShapes = append(gemmShapes, struct{ m, k, n int }{mrTile + mm, k, nn})
				}
			}
		}
	}
}

func testIntoMatchesRef[T elem](t *testing.T, api gemmAPI[T], seed uint64) {
	src := rng.New(seed)
	for _, fill := range api.fills {
		for _, s := range gemmShapes {
			a := fill(src, s.m*s.k)
			b := fill(src, s.k*s.n)
			got := make([]T, s.m*s.n)
			want := make([]T, s.m*s.n)
			api.into(got, a, b, s.m, s.k, s.n)
			api.ref(want, a, b, s.m, s.k, s.n)
			assertSlicesEqual(t, api.name, got, want)
		}
	}
}

func TestMatMulIntoMatchesRef(t *testing.T)    { testIntoMatchesRef(t, floatAPI, 11) }
func TestIntMatMulIntoMatchesRef(t *testing.T) { testIntoMatchesRef(t, intAPI, 21) }

func TestMatMulTIntoMatchesRef(t *testing.T) {
	src := rng.New(12)
	for _, s := range gemmShapes {
		a := randTensor(src, s.m, s.k)
		b := randTensor(src, s.n, s.k)
		got := MatMulTInto(New(s.m, s.n), a, b)
		assertBitEqual(t, "MatMulTInto", got, MatMulTRef(a, b))
		assertBitEqual(t, "MatMulT", MatMulT(a, b), got)
	}
}

func TestMatMulBiasIntoMatchesRef(t *testing.T) {
	src := rng.New(13)
	for _, s := range gemmShapes {
		a := randTensor(src, s.m, s.k)
		b := randTensor(src, s.k, s.n)
		bias := randFloats(src, s.n)
		want := MatMulRef(a, b)
		// The allocating wrapper must agree with the oracle too.
		assertBitEqual(t, "MatMul", MatMul(a, b), want)
		got := MatMulBiasInto(New(s.m, s.n), a, b, bias)
		assertBitEqual(t, "MatMulBiasInto", got, want.AddRowVector(bias))
	}
}

// TestMatMulBiasNegativeZero pins the bias add to after the reduction:
// every product is −0, so the sum is +0 and fl(+0 + −0) = +0, where a
// bias folded in first (−0 + −0 + …) would store −0. One full tile and
// both tails run it.
func TestMatMulBiasNegativeZero(t *testing.T) {
	const m, k, n = mrTile + 1, 3, nrTile + 1
	a := New(m, k)
	a.Fill(1)
	b := New(k, n)
	b.Fill(math.Copysign(0, -1))
	bias := make([]float64, n)
	for i := range bias {
		bias[i] = math.Copysign(0, -1)
	}
	got := MatMulBiasInto(New(m, n), a, b, bias)
	assertBitEqual(t, "MatMulBiasInto", got, MatMulRef(a, b).AddRowVector(bias))
	for i, v := range got.Data() {
		if math.Signbit(v) {
			t.Fatalf("element %d = −0, want +0", i)
		}
	}
}

// TestPortableDriverMatchesRef reruns the driver's shape cases with both vector kernels swapped for the portable
// one, so the path arm64 and non-AVX CPUs take is executed here too,
// not only compiled.
func TestPortableDriverMatchesRef(t *testing.T) {
	float, narrow := micro4x8, intMicro4x8Narrow
	t.Cleanup(func() { micro4x8, intMicro4x8Narrow = float, narrow })
	micro4x8, intMicro4x8Narrow = micro4x8Go[float64], nil
	testIntoMatchesRef(t, floatAPI, 11)
	testIntoMatchesRef(t, intAPI, 21)
	TestMatMulTIntoMatchesRef(t)
	TestMatMulBiasIntoMatchesRef(t)
}

// TestPortableMicroKernel runs the generic portable micro-kernel
// directly — on an AVX machine no GEMM entry point ever reaches it for
// float64 or narrow int64 operands — against a naive per-element dot
// product and against the vector kernel init selected for the same
// operands (nil where there is none: wide int64, or a non-amd64 build).
// The tile sits inside a wider destination (ldd > 8) filled with
// sentinels, so a store outside the four 8-element row windows shows.
func TestPortableMicroKernel(t *testing.T) {
	testPortableMicro(t, "float64", randFloats, micro4x8)
	testPortableMicro(t, "int64 narrow", randNarrowInt64s, intMicro4x8Narrow)
	testPortableMicro(t, "int64 wide", randInt64s, nil)
}

func testPortableMicro[T elem](t *testing.T, name string, fill func(*rng.Source, int) []T, vec microKernel[T]) {
	const ldd, off, sentinel = nrTile + 5, 3, 77
	src := rng.New(19)
	for _, k := range []int{0, 1, 7, 513} {
		rows := [mrTile][]T{fill(src, k), fill(src, k), fill(src, k), fill(src, k)}
		bp := fill(src, nrTile*k)
		for _, bias := range [][]T{nil, fill(src, nrTile)} {
			label := fmt.Sprintf("%s k=%d bias=%t", name, k, bias != nil)
			want := make([]T, off+mrTile*ldd)
			for i := range want {
				want[i] = sentinel
			}
			got := append([]T(nil), want...)
			for r, row := range rows {
				for j := 0; j < nrTile; j++ {
					var s T
					for kk, av := range row {
						s += av * bp[kk*nrTile+j]
					}
					if bias != nil {
						s += bias[j]
					}
					want[off+r*ldd+j] = s
				}
			}
			vecGot := append([]T(nil), got...)
			micro4x8Go(got[off:], ldd, bias, rows[0], rows[1], rows[2], rows[3], bp, k)
			assertSlicesEqual(t, label+" portable vs naive", got, want)
			if vec != nil {
				vec(vecGot[off:], ldd, bias, rows[0], rows[1], rows[2], rows[3], bp, k)
				assertSlicesEqual(t, label+" vector vs portable", vecGot, got)
			}
		}
	}
}

// TestIntMicroDispatchBoundary pins the narrow/wide dispatch edge: a
// single value of magnitude 2^31 (one past int32) anywhere in either
// operand must force the portable kernel, while all-int32 operands
// (down to int32 min itself) stay narrow — and both must match the
// reference exactly. Also verifies the scan inspects only the used prefix of
// oversized operand slices.
func TestIntMicroDispatchBoundary(t *testing.T) {
	const m, k, n = 8, 12, 8
	src := rng.New(25)
	a := randNarrowInt64s(src, m*k)
	b := randNarrowInt64s(src, k*n)
	check := func(label string) {
		t.Helper()
		got := make([]int64, m*n)
		want := make([]int64, m*n)
		IntMatMulInto(got, a, b, m, k, n)
		IntMatMulRef(want, a, b, m, k, n)
		assertSlicesEqual(t, label, got, want)
	}
	if !int64sNarrow(a) || !int64sNarrow(b) {
		t.Fatal("fixture operands not narrow")
	}
	check("all narrow")
	a[m*k/2] = 1 << 31 // just wide
	if int64sNarrow(a) {
		t.Fatal("2^31 classified as narrow")
	}
	check("one wide lhs")
	a[m*k/2] = -1 << 31 // int32 min: narrow again
	b[k*n/2] = -1<<31 - 1
	if int64sNarrow(b) {
		t.Fatal("-2^31-1 classified as narrow")
	}
	check("one wide rhs")

	// A wide value beyond the used prefix must not affect dispatch.
	aLong := append(append([]int64{}, a...), int64(1)<<40)
	if !int64sNarrow(aLong[:m*k]) {
		t.Fatal("prefix scan leaked past m*k")
	}
	got := make([]int64, m*n)
	want := make([]int64, m*n)
	IntMatMulInto(got, aLong, b, m, k, n)
	IntMatMulRef(want, aLong, b, m, k, n)
	assertSlicesEqual(t, "oversized operand", got, want)
}

func TestAddInto(t *testing.T) {
	src := rng.New(17)
	a := randTensor(src, 5, 7)
	b := randTensor(src, 5, 7)
	want := New(5, 7)
	for i := range want.Data() {
		want.Data()[i] = a.Data()[i] + b.Data()[i]
	}
	assertBitEqual(t, "AddInto", AddInto(New(5, 7), a, b), want)
	assertBitEqual(t, "Add", a.Add(b), want)
	// AddInto may alias its operands.
	aCopy := a.Clone()
	assertBitEqual(t, "AddInto aliased", AddInto(aCopy, aCopy, b), want)
}

// testRejectsOverlap lays a 3×4 lhs and a 4×5 rhs out inside one buffer
// and slides the 3×5 destination across it: every placement that shares
// any element with an operand must panic — the validator used to catch
// only a shared *first* element, so dst = a[4:] slipped through and the
// kernel overwrote operand rows it had yet to read — and the placements
// that merely touch an operand's boundary must not.
func testRejectsOverlap[T elem](t *testing.T, api gemmAPI[T]) {
	const m, k, n = 3, 4, 5
	buf := make([]T, 64)
	a, b := buf[16:16+m*k], buf[28:28+k*n] // [16,28) and [28,48)
	at := func(off int) func() {
		return func() { api.into(buf[off:off+m*n], a, b, m, k, n) }
	}
	assertPanics(t, map[string]func(){
		api.name + " dst starts at lhs":      at(16),
		api.name + " dst starts at rhs":      at(28),
		api.name + " dst = lhs[4:]":          at(20),
		api.name + " dst inside rhs":         at(33),
		api.name + " dst runs into lhs head": at(4),
	})
	at(1)()  // [1,16): ends where lhs begins
	at(48)() // [48,63): begins where rhs ends
}

func TestMatMulIntoRejectsBadDst(t *testing.T) {
	testRejectsOverlap(t, floatAPI)
	a, b := New(3, 4), New(4, 5)
	assertPanics(t, map[string]func(){
		"shape":          func() { MatMulInto(New(3, 4), a, b) },
		"aliasing":       func() { MatMulInto(a, a, b) },
		"aliasing T":     func() { MatMulTInto(FromSlice(a.Data()[2:11], 3, 3), a, New(3, 4)) },
		"bias":           func() { MatMulBiasInto(New(3, 5), a, b, make([]float64, 4)) },
		"bias missing":   func() { MatMulBiasInto(New(3, 5), a, b, nil) },
		"inner mismatch": func() { MatMulInto(New(3, 5), a, New(3, 5)) },
	})
}

func TestIntMatMulIntoRejectsBadDst(t *testing.T) {
	testRejectsOverlap(t, intAPI)
	a := make([]int64, 3*4)
	b := make([]int64, 4*5)
	assertPanics(t, map[string]func(){
		"short dst": func() { IntMatMulInto(make([]int64, 3*4), a, b, 3, 4, 5) },
		"short lhs": func() { IntMatMulInto(make([]int64, 3*5), a[:11], b, 3, 4, 5) },
		"short rhs": func() { IntMatMulInto(make([]int64, 3*5), a, b[:19], 3, 4, 5) },
		"neg dim":   func() { IntMatMulInto(make([]int64, 3*5), a, b, -3, 4, 5) },
		"ref too":   func() { IntMatMulRef(a[4:], a, b, 3, 4, 2) },
	})
}

func TestArenaReuse(t *testing.T) {
	ar := GetArena()
	defer ar.Release()
	x := ar.NewUninit(4, 6)
	x.Fill(7)
	base := &x.Data()[0]
	ar.Put(x)

	// Same element count comes back as the same storage, reshaped.
	y := ar.NewUninit(6, 4)
	if &y.Data()[0] != base {
		t.Fatal("NewUninit did not recycle the Put tensor")
	}
	if y.Dim(0) != 6 || y.Dim(1) != 4 {
		t.Fatalf("recycled shape %v, want [6 4]", y.Shape())
	}
	if y.Data()[0] != 7 {
		t.Fatal("NewUninit should not clear recycled storage")
	}
	ar.Put(y)

	// New clears the recycled storage.
	z := ar.New(24)
	if &z.Data()[0] != base {
		t.Fatal("New did not recycle the Put tensor")
	}
	for i, v := range z.Data() {
		if v != 0 {
			t.Fatalf("New left stale value %v at %d", v, i)
		}
	}
	ar.Put(z)

	// A different element count is a miss: fresh storage.
	w := ar.NewUninit(5, 5)
	if &w.Data()[0] == base {
		t.Fatal("NewUninit recycled across different element counts")
	}
}

// TestArenaInt64Reuse mirrors TestArenaReuse for the int64 scratch pool.
func TestArenaInt64Reuse(t *testing.T) {
	ar := GetArena()
	defer ar.Release()
	x := ar.Int64(24)
	x[0] = 7
	base := &x[0]
	ar.PutInt64(x)

	// Same length comes back as the same storage, contents unspecified.
	y := ar.Int64(24)
	if &y[0] != base {
		t.Fatal("Int64 did not recycle the PutInt64 slice")
	}
	if y[0] != 7 {
		t.Fatal("Int64 should not clear recycled storage")
	}
	ar.PutInt64(y)

	// A different length is a miss: fresh storage.
	w := ar.Int64(25)
	if &w[0] == base {
		t.Fatal("Int64 recycled across different lengths")
	}
}

// FuzzGEMMEquivalence fuzzes randomized shapes and finite contents
// through every kernel entry point, asserting bit-identity against the
// scalar reference oracle.
func FuzzGEMMEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(5))
	f.Add(int64(2), uint8(0), uint8(1), uint8(9))
	f.Add(int64(3), uint8(1), uint8(0), uint8(1))
	f.Add(int64(4), uint8(17), uint8(16), uint8(17))
	f.Add(int64(5), uint8(65), uint8(33), uint8(70))
	// The column tails either side of one and two 8-wide panels.
	f.Add(int64(6), uint8(5), uint8(7), uint8(7))
	f.Add(int64(7), uint8(6), uint8(9), uint8(9))
	f.Add(int64(8), uint8(7), uint8(15), uint8(15))
	f.Add(int64(9), uint8(9), uint8(17), uint8(17))
	f.Fuzz(func(t *testing.T, seed int64, m8, k8, n8 uint8) {
		m, k, n := int(m8%80), int(k8%80), int(n8%80)
		src := rng.New(uint64(seed))
		a := randTensor(src, m, k)
		b := randTensor(src, k, n)
		bt := randTensor(src, n, k)
		bias := make([]float64, n)
		for i := range bias {
			bias[i] = src.Gauss(0, 1)
		}
		wantMM := MatMulRef(a, b)
		wantMMB := wantMM.Clone().AddRowVector(bias)
		wantMMT := MatMulTRef(a, bt)

		assertBitEqual(t, "MatMulInto", MatMulInto(New(m, n), a, b), wantMM)
		assertBitEqual(t, "MatMulBiasInto", MatMulBiasInto(New(m, n), a, b, bias), wantMMB)
		assertBitEqual(t, "MatMulTInto", MatMulTInto(New(m, n), a, bt), wantMMT)
	})
}

// FuzzIntGEMMEquivalence fuzzes randomized shapes and full-range int64
// contents through the integer entry point, asserting exact equality
// against the naive reference oracle. Wrapping overflow is in scope:
// int64 arithmetic mod 2^64 must agree between kernels for any inputs.
func FuzzIntGEMMEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(5))
	f.Add(int64(2), uint8(0), uint8(1), uint8(9))
	f.Add(int64(3), uint8(1), uint8(0), uint8(1))
	f.Add(int64(4), uint8(17), uint8(16), uint8(17))
	f.Add(int64(5), uint8(65), uint8(33), uint8(70))
	// The column tails either side of one and two 8-wide panels.
	f.Add(int64(6), uint8(5), uint8(7), uint8(7))
	f.Add(int64(7), uint8(6), uint8(9), uint8(9))
	f.Add(int64(8), uint8(7), uint8(15), uint8(15))
	f.Add(int64(9), uint8(9), uint8(17), uint8(17))
	f.Fuzz(func(t *testing.T, seed int64, m8, k8, n8 uint8) {
		m, k, n := int(m8%80), int(k8%80), int(n8%80)
		src := rng.New(uint64(seed))
		// Odd seeds pin the operands to int32 range so the narrow
		// micro-kernel is fuzzed as systematically as the portable one.
		fill := randInt64s
		if seed%2 != 0 {
			fill = randNarrowInt64s
		}
		a := fill(src, m*k)
		b := fill(src, k*n)
		want := make([]int64, m*n)
		IntMatMulRef(want, a, b, m, k, n)
		got := make([]int64, m*n)
		IntMatMulInto(got, a, b, m, k, n)
		assertSlicesEqual(t, "IntMatMulInto", got, want)
	})
}

// BenchmarkGEMMViTS times the served ViT-S GEMMs one shape at a time and
// reports GFLOP/s (2·m·k·n per call): the four weight GEMMs of a stacked
// 4-image batch (m = 4 × 66 tokens, bias fused) and the two per-head
// attention GEMMs. Run with
//
//	go test -run '^$' -bench GEMMViTS -benchtime 200x ./internal/tensor/
func BenchmarkGEMMViTS(b *testing.B) {
	const tokens, dim, heads = 66, 96, 3
	const rows = 4 * tokens
	cases := []struct {
		name    string
		m, k, n int
		run     func(dst, a, w *Tensor, bias []float64)
		wT      bool
	}{
		{"qkv", rows, dim, 3 * dim, biasInto, false},
		{"proj", rows, dim, dim, biasInto, false},
		{"fc1", rows, dim, 4 * dim, biasInto, false},
		{"fc2", rows, 4 * dim, dim, biasInto, false},
		{"scores", tokens, dim / heads, tokens, func(dst, a, w *Tensor, _ []float64) { MatMulTInto(dst, a, w) }, true},
		{"context", tokens, tokens, dim / heads, func(dst, a, w *Tensor, _ []float64) { MatMulInto(dst, a, w) }, false},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("%s_%dx%dx%d", c.name, c.m, c.k, c.n), func(b *testing.B) {
			src := rng.New(31)
			a := randTensor(src, c.m, c.k)
			w := randTensor(src, c.k, c.n)
			if c.wT {
				w = randTensor(src, c.n, c.k)
			}
			bias := randFloats(src, c.n)
			dst := New(c.m, c.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.run(dst, a, w, bias)
			}
			flops := 2 * float64(c.m*c.k*c.n) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func biasInto(dst, a, w *Tensor, bias []float64) { MatMulBiasInto(dst, a, w, bias) }
