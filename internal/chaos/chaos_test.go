package chaos

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestFakeClockRecordsAndAdvances(t *testing.T) {
	c := NewFake()
	start := c.Now()
	if err := c.Sleep(context.Background(), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Sleep(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Now().Sub(start); got != 4*time.Second {
		t.Fatalf("fake clock advanced %v, want 4s", got)
	}
	sleeps := c.Sleeps()
	if len(sleeps) != 2 || sleeps[0] != 3*time.Second || sleeps[1] != time.Second {
		t.Fatalf("recorded sleeps %v", sleeps)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Second); err != context.Canceled {
		t.Fatalf("cancelled fake sleep returned %v", err)
	}
}

func TestRealClockSleepHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Real.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("cancelled real sleep returned %v", err)
	}
	if err := Real.Sleep(context.Background(), 0); err != nil {
		t.Fatalf("zero sleep returned %v", err)
	}
}

// newBackend returns a test server echoing a fixed body.
func newBackend(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, client *http.Client, url string) (*http.Response, string, error) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		return nil, "", err
	}
	var buf bytes.Buffer
	_, rerr := io.Copy(&buf, resp.Body)
	if cerr := resp.Body.Close(); cerr != nil && rerr == nil {
		rerr = cerr
	}
	return resp, buf.String(), rerr
}

func TestTransportInjectsScriptedFaults(t *testing.T) {
	srv := newBackend(t, "hello from the backend")
	tr := NewTransport(nil, NewFake(), &Script{
		Name: "unit",
		Seed: 7,
		Rules: []Rule{
			{PathPrefix: "/reset", Fault: FaultReset, Max: 1},
			{PathPrefix: "/storm429", Fault: Fault429},
			{PathPrefix: "/storm500", Fault: Fault500},
			{PathPrefix: "/cut", Fault: FaultTruncate},
			{PathPrefix: "/slow", Fault: FaultLatency, Latency: 250 * time.Millisecond},
		},
	})
	client := &http.Client{Transport: tr}

	// First /reset round trip fails; Max=1 exhausts the rule, so the
	// second one reaches the backend.
	if _, _, err := get(t, client, srv.URL+"/reset"); err == nil {
		t.Fatal("first /reset round trip did not fail")
	}
	if resp, body, err := get(t, client, srv.URL+"/reset"); err != nil || resp.StatusCode != 200 || body == "" {
		t.Fatalf("second /reset round trip = %v, %q, %v; want a clean 200", resp, body, err)
	}

	resp, _, err := get(t, client, srv.URL+"/storm429")
	if err != nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("storm429 = %v, %v; want 429", resp, err)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("injected 429 Retry-After = %q, want 7", ra)
	}
	if resp, _, err := get(t, client, srv.URL+"/storm500"); err != nil || resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("storm500 = %v, %v; want 500", resp, err)
	}

	// Truncation: body cut in half against a full-size Content-Length.
	if _, body, err := get(t, client, srv.URL+"/cut"); err == nil || len(body) >= len("hello from the backend") {
		t.Fatalf("truncated read: body %q err %v; want a short body with an error", body, err)
	}

	// Latency goes through the injected clock, not a real sleep.
	clock := NewFake()
	tr2 := NewTransport(nil, clock, &Script{Name: "lat", Rules: []Rule{
		{PathPrefix: "/", Fault: FaultLatency, Latency: 250 * time.Millisecond},
	}})
	if _, _, err := get(t, &http.Client{Transport: tr2}, srv.URL+"/slow"); err != nil {
		t.Fatal(err)
	}
	if sleeps := clock.Sleeps(); len(sleeps) != 1 || sleeps[0] != 250*time.Millisecond {
		t.Fatalf("latency fault slept %v, want [250ms]", sleeps)
	}
}

func TestTransportBlackholeWaitsForContext(t *testing.T) {
	srv := newBackend(t, "unreachable")
	tr := NewTransport(nil, nil, &Script{Name: "bh", Rules: []Rule{
		{PathPrefix: "/", Fault: FaultBlackhole},
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&http.Client{Transport: tr}).Do(req); err == nil {
		t.Fatal("black-holed request returned without error")
	}
	if ctx.Err() == nil {
		t.Fatal("black-holed request returned before its context expired")
	}
}

func TestTransportSeededProbabilisticFaultsReplay(t *testing.T) {
	srv := newBackend(t, "ok")
	run := func() []Event {
		tr := NewTransport(nil, nil, &Script{Name: "prob", Seed: 42, Rules: []Rule{
			{PathPrefix: "/", Fault: Fault500, Prob: 0.5},
		}})
		client := &http.Client{Transport: tr}
		for i := 0; i < 32; i++ {
			resp, _, err := get(t, client, srv.URL+"/p")
			if err != nil {
				t.Fatal(err)
			}
			_ = resp
		}
		return tr.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	faulted := 0
	for i := range a {
		if a[i].Fault != b[i].Fault || a[i].Status != b[i].Status {
			t.Fatalf("event %d differs across seeded replays: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Fault == Fault500 {
			faulted++
		}
	}
	if faulted == 0 || faulted == len(a) {
		t.Fatalf("probabilistic rule fired %d/%d times; want a proper mix", faulted, len(a))
	}
}

func TestTransportCountAndAddRule(t *testing.T) {
	srv := newBackend(t, "ok")
	tr := NewTransport(nil, nil, &Script{Name: "count"})
	client := &http.Client{Transport: tr}
	if _, _, err := get(t, client, srv.URL+"/a"); err != nil {
		t.Fatal(err)
	}
	tr.AddRule(Rule{PathPrefix: "/a", Fault: Fault429})
	if resp, _, err := get(t, client, srv.URL+"/a"); err != nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-AddRule response = %v, %v; want 429", resp, err)
	}
	tr.ClearRules()
	if resp, _, err := get(t, client, srv.URL+"/a"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("post-ClearRules response = %v, %v; want 200", resp, err)
	}
	if n := tr.Count(http.MethodGet, "/a", "", Fault429, false); n != 1 {
		t.Fatalf("Count(429) = %d, want 1", n)
	}
	if n := tr.Count(http.MethodGet, "/a", "", FaultNone, true); n != 3 {
		t.Fatalf("Count(any) = %d, want 3", n)
	}
}

func TestReportDeterminismAndVerdicts(t *testing.T) {
	build := func() *Report {
		r := NewReport("unit", 9)
		r.CheckConservation(5, 5, 5, 5)
		r.CheckCalibrateOnce(map[string]int{"b": 1, "a": 2}, map[string]int{"a": 2})
		r.CheckNeverRetried(3, 3, 3, 3)
		r.CheckBoundedRemap(
			map[string]int{"k1": 0, "k2": 1},
			map[string]int{"k1": 2, "k2": 1},
			map[string]int{"k1": 0, "k2": 1},
			0,
		)
		r.CheckBoundedDrain(true, 4, 4)
		r.CheckLatencySLO(5, 5, 1, 0, []int{4, 1, 4}, true)
		return r
	}
	var a, b strings.Builder
	if err := build().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("report rendering not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	if r := build(); r.Failed() {
		t.Fatalf("all-green report reports failure:\n%s", a.String())
	}

	// Each checker must catch its violation.
	r := NewReport("unit", 9)
	r.CheckConservation(5, 4, 5, 5)                   // lost reply
	r.CheckCalibrateOnce(map[string]int{"a": 2}, nil) // duplicate calibration
	r.CheckNeverRetried(3, 4, 3, 3)                   // retried 429
	r.CheckBoundedRemap(
		map[string]int{"k1": 0, "k2": 1},
		map[string]int{"k1": 0, "k2": 2}, // non-victim key moved
		map[string]int{"k1": 0, "k2": 1},
		0,
	)
	r.CheckBoundedDrain(false, 4, 4)                     // deadline blown
	r.CheckLatencySLO(5, 4, 1, 0, []int{4, 1, 4}, true)  // admitted request missed its budget
	r.CheckLatencySLO(5, 5, 0, 0, []int{4, 1, 4}, true)  // overload never shed
	r.CheckLatencySLO(5, 5, 2, 0, []int{4, 1, 4}, true)  // shed probe re-sent and shed again
	r.CheckLatencySLO(5, 5, 1, 2, []int{4, 1, 4}, true)  // shed request held queue slots
	r.CheckLatencySLO(5, 5, 1, 0, []int{4, 4, 4}, true)  // governor never adapted
	r.CheckLatencySLO(5, 5, 1, 0, []int{4, 1, 4}, false) // shed counter absent from merged view
	for i, c := range r.Results {
		if c.Pass {
			t.Errorf("check %d (%s) passed on a violating history: %s", i, c.Name, c.Detail)
		}
	}
}
