package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"quq/internal/rng"
)

// benchmarkJSON is the contract file's shape.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesSpec holds BENCHMARK.json and the tables the
// program emits from to each other, row for row.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bj.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloadSpecs))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadSpecs[i].Name || w.Why != workloadSpecs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, w.Name, w.Why, workloadSpecs[i].Name, workloadSpecs[i].Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, program has %+v", i, m, want)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %q: outside the contract's limits", m.Name)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bj.PerLayer {
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, program has %+v", i, m, want)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer %q: outside the contract's limits or used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", bj.RunSeconds, bj.Paths)
	}
}

func testParams(t *testing.T) params {
	return params{
		seed: 7, window: 600 * time.Millisecond, warm: 100 * time.Millisecond,
		setups: 1, e2e: true, layers: true, scratch: t.TempDir(),
		logf: t.Logf,
	}
}

// checkResult asserts what every workload run owes: no failure, every
// end-to-end and per-layer name emitted as a finite number, spans that
// nest, and forward classes that partition the traced forward.
func checkResult(t *testing.T, res *result) {
	t.Helper()
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("attempted %d failed %d: %v %v", res.Attempted, res.Failed, res.Problems, res.Phases)
	}
	for _, m := range endToEnd {
		if v, ok := res.E2E[m.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("end-to-end %s = %v (emitted %v), want a positive number", m.Name, v, ok)
		}
	}
	for _, m := range perLayer {
		if v, ok := res.Layers[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer %s = %v (emitted %v), want a number", m.Name, v, ok)
		}
	}
	if len(res.Layers) != len(perLayer) {
		t.Errorf("%d per-layer values emitted, %d declared", len(res.Layers), len(perLayer))
	}

	spans := res.Spans
	forwards := 0
	kids := map[int]int64{}
	for i, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent == unknownParent {
			t.Errorf("span %d (%s) never found its parent", i, s.Name)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End || s.Req != p.Req {
				t.Errorf("span %d (%s %d..%d req %d) is not inside its parent %s (%d..%d req %d)", i, s.Name, s.Start, s.End, s.Req, p.Name, p.Start, p.End, p.Req)
			}
			kids[s.Parent] += s.dur()
		}
	}
	for i, s := range spans {
		if s.Name != "ptq.forward" {
			continue
		}
		forwards++
		if diff := math.Abs(float64(kids[i]-s.dur())) / float64(s.dur()); diff > 0.02 {
			t.Errorf("traced forward %d: the five classes sum to %d ns of %d ns (off by %.1f%%)", i, kids[i], s.dur(), 100*diff)
		}
	}
	if forwards == 0 {
		t.Error("no traced forward in the span list")
	}
	l := res.Layers
	classes := l["vit.linear_ms"] + l["ptq.tap_ms"] + l["vit.attn_gemm_ms"] + l["vit.sfu_ms"] + l["vit.glue_ms"]
	if classes <= 0 || l["ptq.taps_per_img"] <= 0 || l["serve.handler_ms"] <= 0 || l["client.traced_req_ms"] < l["serve.handler_ms"] {
		t.Errorf("layer rows do not describe a request: %v", l)
	}
}

// The workload tests run the real stack with windows, key sets and
// replay lengths shrunk through the structs' fields.

func TestFleetSingles(t *testing.T) {
	w := classifyWorkloads[0]
	w.keys, w.bodies, w.replay, w.direct = w.keys[:2], 4, 24, 8
	res, err := w.run(context.Background(), testParams(t))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	hops := map[string]string{"shard.front": "client.request", "serve.handler": "shard.front"}
	found := 0
	for _, s := range res.Spans {
		if want, ok := hops[s.Name]; ok {
			found++
			if s.Parent < 0 || res.Spans[s.Parent].Name != want {
				t.Errorf("%s span of request %d has parent %d, want a %s span", s.Name, s.Req, s.Parent, want)
			}
		}
	}
	if found != 2*w.replay {
		t.Errorf("%d front and handler spans for %d replayed requests", found, w.replay)
	}
	if res.Layers["shard.hop_ms"] <= 0 || res.Layers["client.sent"] <= 0 {
		t.Errorf("fleet rows empty: %v", res.Layers)
	}
}

func TestBatchIntOnSmallModel(t *testing.T) {
	w := classifyWorkloads[2]
	if !w.intPath {
		t.Fatal("classifyWorkloads[2] is not the integer-engine workload")
	}
	w.keys, w.bodies, w.replay, w.direct = []keySpec{{"ViT-Nano", 6, "full"}}, 4, 12, 6
	res, err := w.run(context.Background(), testParams(t))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if res.Layers["shard.hop_ms"] != 0 {
		t.Errorf("shard.hop_ms = %v on a workload that bypasses the front", res.Layers["shard.hop_ms"])
	}
}

func TestColdKeysOnSmallModel(t *testing.T) {
	p := testParams(t)
	p.coldKeys = []keySpec{{"ViT-Nano", 4, "full"}, {"ViT-Nano", 6, "partial"}, {"ViT-Nano", 8, "full"}}
	p.window = 2 * time.Second
	res, err := runCold(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if res.Layers["snapstore.warm_restart_ms"] <= 0 || res.Layers["snapstore.bytes_per_key"] <= 0 {
		t.Errorf("snapstore rows empty: %v", res.Layers)
	}
}

// TestSameSeedSameRequests: the seed alone decides what is sent and when.
func TestSameSeedSameRequests(t *testing.T) {
	build := func(seed uint64) (*inputs, []schedEntry, []schedEntry) {
		src := rng.New(seed)
		w := classifyWorkloads[0]
		in, err := makeInputs(src.Split(), w.keys, w.per, 3)
		if err != nil {
			t.Fatal(err)
		}
		return in, openSchedule(src.Split(), in, w.rate, 2*time.Second), closedSequence(src.Split(), in, 64)
	}
	in1, open1, closed1 := build(11)
	in2, open2, closed2 := build(11)
	if !reflect.DeepEqual(in1.bodies, in2.bodies) || !reflect.DeepEqual(in1.quantize, in2.quantize) {
		t.Error("same seed, different request bodies")
	}
	if !reflect.DeepEqual(open1, open2) || !reflect.DeepEqual(closed1, closed2) {
		t.Error("same seed, different schedule")
	}
	in3, open3, _ := build(12)
	if reflect.DeepEqual(in1.bodies, in3.bodies) || reflect.DeepEqual(open1, open3) {
		t.Error("different seeds, same requests")
	}
	if n := len(open1); n < 200 || n > 400 {
		t.Errorf("%d arrivals in 2 s at 150 req/s", n)
	}
	for i := 1; i < len(open1); i++ {
		if open1[i].Due < open1[i-1].Due {
			t.Fatal("schedule not in due order")
		}
	}
}

// TestDueTimeChargesStall: when the server stalls on one request, the
// open loop times the requests queued behind it from when they were
// due, not from when a connection came free.
func TestDueTimeChargesStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	key := keySpec{"ViT-Nano", 6, "full"}
	in := &inputs{keys: []keySpec{key}, per: 1, bodies: [][][]byte{{[]byte(`{}`)}}, expected: [][][]float64{{{1, 2}}}}
	var stalled atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stalled.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		fmt.Fprintf(w, `{"key":%q,"results":[{"argmax":1,"logits":[1,2]}]}`, key.String())
	}))
	defer srv.Close()
	sched := []schedEntry{{Due: 0}, {Due: 20 * time.Millisecond}, {Due: 40 * time.Millisecond}, {Due: 400 * time.Millisecond}}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	p := runOpen(context.Background(), target{hc: hc, url: srv.URL, in: in, perReq: 1}, "rate", sched, 10, 0, time.Second, 1)
	if p.Failed != 0 || p.OK != len(sched) {
		t.Fatalf("ok %d failed %d: %v", p.OK, p.Failed, p.Errs)
	}
	for i, wantAtLeast := range []time.Duration{stall, stall - 20*time.Millisecond, stall - 40*time.Millisecond} {
		if got := time.Duration(p.Lat[i] * float64(time.Millisecond)); got < wantAtLeast {
			t.Errorf("request %d: latency %v, want at least %v (the stall it queued behind)", i, got, wantAtLeast)
		}
	}
	if got := time.Duration(p.Lat[3] * float64(time.Millisecond)); got > stall/2 {
		t.Errorf("request due after the stall cleared took %v", got)
	}
	if len(p.Late) != 1 { // only the last found the connection free before it was due and slept
		t.Errorf("%d generator-lateness samples, want 1", len(p.Late))
	}
}

func TestSelfTimeAndNesting(t *testing.T) {
	spans := []span{
		{Name: "client.request", Start: 0, End: 100, Parent: noParent, Req: 0},
		{Name: "shard.front", Start: 10, End: 90, Parent: unknownParent, Req: 0},
		{Name: "serve.handler", Start: 20, End: 70, Parent: unknownParent, Req: 0},
		{Name: "serve.handler", Start: 20, End: 70, Parent: unknownParent, Req: 1}, // another request: no parent here
	}
	nestByContainment(spans)
	if spans[1].Parent != 0 || spans[2].Parent != 1 || spans[3].Parent != noParent {
		t.Fatalf("parents %d %d %d", spans[1].Parent, spans[2].Parent, spans[3].Parent)
	}
	if self := selfTimes(spans); !reflect.DeepEqual(self, []int64{20, 30, 50, 50}) {
		t.Errorf("self times %v", self)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if median(xs) != 3 || percentile(xs, 0) != 1 || percentile(xs, 100) != 5 || percentile(nil, 50) != 0 {
		t.Error("percentile")
	}
	for n, want := range map[int]float64{50: 50, 100: 90, 999: 90, 1000: 99, 10000: 99.9} {
		if p, beyond := supportedPercentile(n); p != want || (p > 50 && beyond < 10) {
			t.Errorf("supportedPercentile(%d) = %v with %d beyond, want %v", n, p, beyond, want)
		}
	}
}
