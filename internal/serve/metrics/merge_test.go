package metrics

import (
	"bytes"
	"strings"
	"testing"
)

// page renders a registry with one counter, one gauge and one histogram
// at the given values, returning its text exposition.
func page(t *testing.T, reqs uint64, depth int64, obs []float64) string {
	t.Helper()
	r := NewRegistry()
	c := r.NewCounter("quq_serve_requests_total", "HTTP requests accepted")
	g := r.NewGauge("quq_serve_queue_depth", "images admitted and not yet finished")
	h := r.NewHistogram("quq_serve_request_seconds", "request latency in seconds", LatencyBuckets())
	c.Add(reqs)
	g.Set(depth)
	for _, v := range obs {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestParseTextRoundTrip(t *testing.T) {
	text := page(t, 7, 3, []float64{0.01, 0.02, 1.5})
	e, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Scalar("quq_serve_requests_total"); !ok || v != 7 {
		t.Fatalf("requests scalar = %v, %v; want 7", v, ok)
	}
	if v, ok := e.Scalar("quq_serve_queue_depth"); !ok || v != 3 {
		t.Fatalf("queue depth = %v, %v; want 3", v, ok)
	}
	if n, ok := histCount(e, "quq_serve_request_seconds"); !ok || n != 3 {
		t.Fatalf("histogram count = %v, %v; want 3", n, ok)
	}

	// Re-rendering the parsed page and re-parsing it must be a fixed
	// point: parse(write(parse(x))) == parse(x), and the rendered text
	// must itself be stable.
	var buf bytes.Buffer
	if err := e.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := e2.WriteText(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatalf("render not a fixed point:\n--- first\n%s\n--- second\n%s", buf.String(), buf2.String())
	}
}

func TestMergeSumsEverything(t *testing.T) {
	a, err := ParseText(strings.NewReader(page(t, 5, 2, []float64{0.01, 0.2})))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseText(strings.NewReader(page(t, 9, 1, []float64{0.05})))
	if err != nil {
		t.Fatal(err)
	}
	merged := NewExposition()
	for _, src := range []*Exposition{a, b} {
		if err := merged.Merge(src); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := merged.Scalar("quq_serve_requests_total"); v != 14 {
		t.Fatalf("merged requests = %g; want 14", v)
	}
	if v, _ := merged.Scalar("quq_serve_queue_depth"); v != 3 {
		t.Fatalf("merged queue depth = %g; want 3", v)
	}
	if n, _ := histCount(merged, "quq_serve_request_seconds"); n != 3 {
		t.Fatalf("merged histogram count = %d; want 3", n)
	}
	h := merged.hists["quq_serve_request_seconds"]
	if got, want := h.sum, 0.01+0.2+0.05; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("merged histogram sum = %g; want %g", got, want)
	}
	// The +Inf cumulative bucket must equal the merged count.
	if h.cum[len(h.cum)-1] != 3 {
		t.Fatalf("merged +Inf bucket = %d; want 3", h.cum[len(h.cum)-1])
	}
}

func TestMergeIsOrderIndependent(t *testing.T) {
	pages := []string{
		page(t, 5, 2, []float64{0.01, 0.2}),
		page(t, 9, 1, []float64{0.05}),
		page(t, 1, 0, nil),
	}
	render := func(order []int) string {
		merged := NewExposition()
		for _, i := range order {
			e, err := ParseText(strings.NewReader(pages[i]))
			if err != nil {
				t.Fatal(err)
			}
			if err := merged.Merge(e); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := merged.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render([]int{0, 1, 2}), render([]int{2, 0, 1}); a != b {
		t.Fatalf("merge order changed the rendered cluster view:\n--- 012\n%s\n--- 201\n%s", a, b)
	}
}

func TestMergeRejectsMismatchedBuckets(t *testing.T) {
	ra := NewRegistry()
	ra.NewHistogram("h", "", []float64{1, 2, 3}).Observe(1)
	rb := NewRegistry()
	rb.NewHistogram("h", "", []float64{1, 2}).Observe(1)
	parse := func(r *Registry) *Exposition {
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		e, err := ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	merged := NewExposition()
	if err := merged.Merge(parse(ra)); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(parse(rb)); err == nil {
		t.Fatal("merging mismatched bucket layouts must fail")
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"quq_serve_requests_total not-a-number\n",
		"quq_x_bucket{le=\"nope\"} 3\n",
		"just-a-name-no-value\n",
		"quq_x{a=\"1\",b=\"2\"} 3\n", // multi-label samples are outside the dialect
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) accepted garbage", bad)
		}
	}
}

// TestMergeLabelledScalars: GaugeVec series survive the parse/merge
// round trip — same (name, label value) sums across pages, distinct
// label values stay distinct series, and the merged rendering is
// re-parseable.
func TestMergeLabelledScalars(t *testing.T) {
	pageFor := func(t *testing.T, pairs map[string]int64) string {
		t.Helper()
		r := NewRegistry()
		v := r.NewGaugeVec("quq_shard_backend_inflight", "in-flight per backend", "backend")
		for addr, n := range pairs {
			v.Set(addr, n)
		}
		var buf strings.Builder
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, err := ParseText(strings.NewReader(pageFor(t, map[string]int64{"127.0.0.1:1": 2, "127.0.0.1:2": 5})))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseText(strings.NewReader(pageFor(t, map[string]int64{"127.0.0.1:2": 1, "127.0.0.1:3": 7})))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		`quq_shard_backend_inflight{backend="127.0.0.1:1"}`: 2,
		`quq_shard_backend_inflight{backend="127.0.0.1:2"}`: 6,
		`quq_shard_backend_inflight{backend="127.0.0.1:3"}`: 7,
	} {
		if got, ok := a.Scalar(name); !ok || got != want {
			t.Fatalf("%s = %v, %v; want %v", name, got, ok, want)
		}
	}
	var buf bytes.Buffer
	if err := a.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseText(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("merged page does not re-parse: %v", err)
	}

	// Malformed labelled lines must still be rejected, not merged as
	// zeros.
	if _, err := ParseText(strings.NewReader("x{backend=unquoted} 1\n")); err == nil {
		t.Fatal("unquoted label value parsed")
	}
	if _, err := ParseText(strings.NewReader(`x{backend="a"} notanumber` + "\n")); err == nil {
		t.Fatal("non-numeric labelled scalar parsed")
	}
}

// histCount returns the observation count of a histogram family.
func histCount(e *Exposition, name string) (uint64, bool) {
	h, ok := e.hists[name]
	if !ok {
		return 0, false
	}
	return h.count, true
}
