package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch; Parent is the index of the
// span that caused it in the recorder's list (-1 for a root); spans of
// one replayed request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// noParent marks a root span; unknownParent marks one whose parent
// nestByContainment still has to find (a hop span recorded by
// middleware, which cannot see its caller's span across the wire).
const (
	noParent      = -1
	unknownParent = -2
)

// recorder keeps spans in memory; nothing is written until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string, req, parent int) int {
	t := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: t, Parent: parent, Req: req})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes a span and returns its duration in nanoseconds.
func (r *recorder) end(id int) int64 {
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	d := r.spans[id].dur()
	r.mu.Unlock()
	return d
}

// nest resolves the parents of the hop spans recorded so far.
func (r *recorder) nest() {
	r.mu.Lock()
	nestByContainment(r.spans)
	r.mu.Unlock()
}

// add records an already-timed span (the traced forward times its own
// segments and hands them over whole).
func (r *recorder) add(s span) int {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// nestByContainment gives every unknownParent span the tightest span of
// the same request that contains it in time. The traced pass replays
// requests one at a time, so containment on the one timeline is
// causation: the front's span sits inside the client's, the worker's
// inside the front's.
func nestByContainment(spans []span) {
	byReq := map[int][]int{}
	for i, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], i)
	}
	for i := range spans {
		if spans[i].Parent != unknownParent {
			continue
		}
		best := noParent
		for _, j := range byReq[spans[i].Req] {
			if j == i || spans[j].Start > spans[i].Start || spans[j].End < spans[i].End {
				continue
			}
			if spans[j].dur() == spans[i].dur() && j > i {
				continue // identical intervals: the earlier-recorded one is the parent
			}
			if best == noParent || spans[j].dur() < spans[best].dur() {
				best = j
			}
		}
		spans[i].Parent = best
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// medianByName returns the median of vals (nanoseconds) over the spans
// carrying each name, in milliseconds.
func medianByName(spans []span, vals []int64) map[string]float64 {
	groups := map[string][]float64{}
	for i, s := range spans {
		groups[s.Name] = append(groups[s.Name], float64(vals[i])/1e6)
	}
	out := make(map[string]float64, len(groups))
	//quq:maporder-ok fills a map; the order cannot show
	for name, g := range groups {
		out[name] = median(g)
	}
	return out
}

// spanWriter writes spans to the -trace-out file as JSON lines, one
// workload's list after another; a nil writer writes nothing.
type spanWriter struct {
	f       *os.File
	written int // spans already in the file: later lists' parent indexes shift by it
}

func newSpanWriter(path string) (*spanWriter, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spanWriter{f: f}, nil
}

func (sw *spanWriter) write(spans []span) error {
	if sw == nil {
		return nil
	}
	w := bufio.NewWriter(sw.f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if s.Parent >= 0 {
			s.Parent += sw.written
		}
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing %s: %w", sw.f.Name(), err)
		}
	}
	sw.written += len(spans)
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", sw.f.Name(), err)
	}
	return nil
}

func (sw *spanWriter) close() error {
	if sw == nil {
		return nil
	}
	return sw.f.Close()
}

// spanMiddleware records one span per classify request around next.
// It is wrapped only around the traced listeners' handlers; the
// listeners the measured windows use serve the bare public handlers.
// cur is the request the replay loop is on, negative outside it (the
// front forwards no request headers, so an id cannot ride the wire).
func spanMiddleware(rec *recorder, name string, cur *atomic.Int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := cur.Load()
		if req < 0 || r.URL.Path != "/v1/classify" {
			next.ServeHTTP(w, r)
			return
		}
		id := rec.begin(name, int(req), unknownParent)
		next.ServeHTTP(w, r)
		rec.end(id)
	})
}
