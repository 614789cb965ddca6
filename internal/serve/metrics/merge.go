package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file makes the text exposition mergeable: quq-shard scrapes every
// backend's /metrics, parses each with ParseText, folds them together
// with Merge, and renders one deterministic cluster view with WriteText.
//
// ParseText understands exactly the dialect the instruments in this
// package emit — `# HELP` lines, scalar samples, `_bucket{le="..."}`
// cumulative histogram lines, `_sum`/`_count` lines, and
// `{quantile="..."}` lines (which are parsed but dropped: quantiles are
// not mergeable, so Merge recomputes them from the merged buckets with
// the same interpolation live Histograms use).

// scalarSample is one counter or gauge value. The text format does not
// distinguish the two kinds; merging sums either way, which is the
// cluster-view semantics for both (total requests, total queue depth).
type scalarSample struct {
	help  string
	value float64
}

// histSample is one parsed histogram family.
type histSample struct {
	help   string
	bounds []float64 // ascending finite upper bounds
	cum    []uint64  // cumulative counts per bound, plus +Inf last
	sum    float64
	count  uint64
}

// Exposition is a parsed metrics page: a mergeable, order-independent
// view of every sample it carried.
type Exposition struct {
	scalars map[string]*scalarSample
	hists   map[string]*histSample
}

// NewExposition returns an empty exposition (useful as a Merge
// accumulator).
func NewExposition() *Exposition {
	return &Exposition{
		scalars: map[string]*scalarSample{},
		hists:   map[string]*histSample{},
	}
}

// Scalar returns the value of a counter or gauge sample.
func (e *Exposition) Scalar(name string) (float64, bool) {
	s, ok := e.scalars[name]
	if !ok {
		return 0, false
	}
	return s.value, true
}

// Names lists every sample family in sorted order.
func (e *Exposition) Names() []string {
	names := make([]string, 0, len(e.scalars)+len(e.hists))
	for n := range e.scalars {
		names = append(names, n)
	}
	for n := range e.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseText parses one metrics page in this package's exposition dialect.
// Unknown comment lines are skipped; a malformed sample line is an error
// (a half-parsed page must not silently merge as zeros).
func ParseText(r io.Reader) (*Exposition, error) {
	e := NewExposition()
	help := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if err := e.parseSample(line, help); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

// parseSample dispatches one non-comment line. Histogram sub-lines are
// recognized by their suffix: the writer emits buckets before
// `_sum`/`_count`, so by the time those suffixes appear the family
// already exists and cannot be mistaken for a scalar.
func (e *Exposition) parseSample(line string, help map[string]string) error {
	name, value, ok := strings.Cut(line, " ")
	if !ok {
		return fmt.Errorf("metrics: malformed sample line %q", line)
	}
	value = strings.TrimSpace(value)

	if base, label, ok := splitLabel(name); ok {
		switch {
		case strings.HasSuffix(base, "_bucket") && strings.HasPrefix(label, "le="):
			return e.parseBucket(strings.TrimSuffix(base, "_bucket"), label, value, help)
		case strings.HasPrefix(label, "quantile="):
			// Quantiles are recomputed from merged buckets; the sample is
			// validated for shape and dropped.
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				return fmt.Errorf("metrics: bad quantile value in %q: %w", line, err)
			}
			return nil
		case validScalarLabel(label):
			// A GaugeVec series (per-backend gauge). The full
			// name{label="value"} string is the merge key, so the same
			// series from two pages sums and distinct label values stay
			// distinct; sorted-name rendering keeps the family's lines
			// adjacent and deterministic.
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return fmt.Errorf("metrics: bad labelled scalar value in %q: %w", line, err)
			}
			e.scalars[name] = &scalarSample{value: v}
			return nil
		}
		return fmt.Errorf("metrics: unsupported labelled sample %q", line)
	}

	if base, ok := strings.CutSuffix(name, "_sum"); ok {
		if h := e.hists[base]; h != nil {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return fmt.Errorf("metrics: bad _sum in %q: %w", line, err)
			}
			h.sum = v
			return nil
		}
	}
	if base, ok := strings.CutSuffix(name, "_count"); ok {
		if h := e.hists[base]; h != nil {
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return fmt.Errorf("metrics: bad _count in %q: %w", line, err)
			}
			h.count = n
			return nil
		}
	}

	v, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return fmt.Errorf("metrics: bad scalar value in %q: %w", line, err)
	}
	e.scalars[name] = &scalarSample{help: help[name], value: v}
	return nil
}

// validScalarLabel reports whether a label body is a single
// `key="quoted value"` pair — the only labelled-scalar shape the
// instruments in this package emit.
func validScalarLabel(label string) bool {
	key, val, ok := strings.Cut(label, "=")
	if !ok || key == "" || strings.ContainsAny(key, `{}", `) {
		return false
	}
	_, err := strconv.Unquote(val)
	return err == nil
}

// splitLabel splits `name{label="x"}` into name and `label="x"`.
func splitLabel(s string) (base, label string, ok bool) {
	i := strings.IndexByte(s, '{')
	if i < 0 || !strings.HasSuffix(s, "}") {
		return "", "", false
	}
	return s[:i], s[i+1 : len(s)-1], true
}

// parseBucket records one cumulative `name_bucket{le="bound"} n` line.
// The writer emits bounds in ascending order ending at +Inf, which is
// what histSample.cum relies on.
func (e *Exposition) parseBucket(name, label, value string, help map[string]string) error {
	boundStr, err := strconv.Unquote(strings.TrimPrefix(label, "le="))
	if err != nil {
		return fmt.Errorf("metrics: bad le label %q: %w", label, err)
	}
	n, err := strconv.ParseUint(value, 10, 64)
	if err != nil {
		return fmt.Errorf("metrics: bad bucket count for %s{le=%q}: %w", name, boundStr, err)
	}
	h := e.hists[name]
	if h == nil {
		h = &histSample{help: help[name]}
		e.hists[name] = h
	}
	if boundStr == "+Inf" {
		h.cum = append(h.cum, n)
		return nil
	}
	bound, err := strconv.ParseFloat(boundStr, 64)
	if err != nil {
		return fmt.Errorf("metrics: bad le bound %q: %w", boundStr, err)
	}
	if len(h.bounds) > 0 && bound <= h.bounds[len(h.bounds)-1] {
		return fmt.Errorf("metrics: histogram %s bounds not ascending at %g", name, bound)
	}
	if len(h.cum) != len(h.bounds) {
		return fmt.Errorf("metrics: histogram %s has buckets after +Inf", name)
	}
	h.bounds = append(h.bounds, bound)
	h.cum = append(h.cum, n)
	return nil
}

// Merge folds src into e: scalars and histogram buckets/sums/counts add
// up. Histograms must share a bucket layout — in this system every
// backend runs the same binary with the same fixed layouts, so a
// mismatch means the scrape mixed incompatible versions and is an error
// rather than a silent mis-merge.
func (e *Exposition) Merge(src *Exposition) error {
	for name, s := range src.scalars {
		dst, ok := e.scalars[name]
		if !ok {
			e.scalars[name] = &scalarSample{help: s.help, value: s.value}
			continue
		}
		dst.value += s.value
		if dst.help == "" {
			dst.help = s.help
		}
	}
	for name, h := range src.hists {
		dst, ok := e.hists[name]
		if !ok {
			e.hists[name] = &histSample{
				help:   h.help,
				bounds: append([]float64(nil), h.bounds...),
				cum:    append([]uint64(nil), h.cum...),
				sum:    h.sum,
				count:  h.count,
			}
			continue
		}
		if len(dst.bounds) != len(h.bounds) {
			return fmt.Errorf("metrics: histogram %s bucket layouts differ (%d vs %d bounds)",
				name, len(dst.bounds), len(h.bounds))
		}
		for i, b := range h.bounds {
			if dst.bounds[i] != b {
				return fmt.Errorf("metrics: histogram %s bucket bound %d differs (%g vs %g)",
					name, i, dst.bounds[i], b)
			}
		}
		for i := range h.cum {
			dst.cum[i] += h.cum[i]
		}
		dst.sum += h.sum
		dst.count += h.count
		if dst.help == "" {
			dst.help = h.help
		}
	}
	return nil
}

// WriteText renders the exposition in the same dialect the live
// instruments emit, sorted by name, so a merged cluster view is
// byte-deterministic regardless of scrape arrival order.
func (e *Exposition) WriteText(w io.Writer) error {
	for _, name := range e.Names() {
		if s, ok := e.scalars[name]; ok {
			if err := writeHelp(w, name, s.help); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", name, formatScalar(s.value)); err != nil {
				return err
			}
			continue
		}
		h := e.hists[name]
		if err := writeHelp(w, name, h.help); err != nil {
			return err
		}
		counts := h.bucketCounts()
		for i, bound := range h.bounds {
			//quq:label-ok le values are the parsed histogram's own bucket bounds — bounded cardinality
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", bound), h.cum[i]); err != nil {
				return err
			}
		}
		if len(h.cum) > len(h.bounds) {
			//quq:label-ok le is the constant +Inf terminal bucket — bounded cardinality
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, "+Inf", h.cum[len(h.cum)-1]); err != nil {
				return err
			}
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			v := bucketQuantile(h.bounds, counts, h.count, q)
			//quq:label-ok quantile values come from the fixed three-element list above — bounded cardinality
			if _, err := fmt.Fprintf(w, "%s{quantile=%q} %g\n", name, fmt.Sprintf("%g", q), v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n", name, h.sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count %d\n", name, h.count); err != nil {
			return err
		}
	}
	return nil
}

// bucketCounts converts the cumulative bucket counts back to per-bucket
// counts (len bounds+1, overflow last) for quantile estimation.
func (h *histSample) bucketCounts() []uint64 {
	counts := make([]uint64, len(h.bounds)+1)
	var prev uint64
	for i, c := range h.cum {
		if i >= len(counts) {
			break
		}
		if c >= prev {
			counts[i] = c - prev
		}
		prev = c
	}
	return counts
}

// formatScalar renders counters and gauges as the integers they are in
// this system, falling back to %g for genuinely fractional merges.
func formatScalar(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
