// Command bench is the repo's benchmark: it boots the real QUQ serving
// stack in process on loopback TCP (serve workers, a shard front, the
// shard-aware client), drives seeded workloads at it with tracing off,
// checks every returned logit vector, and then makes a separate traced
// pass that says where the time goes, layer by layer. BENCHMARK.json at
// the repo root describes it; README.md says how to read it.
//
// Usage:
//
//	go run -C bench .                       # every workload, end to end and traced
//	go run -C bench . -aa                   # the same twice; fails if the two disagree beyond the bounds
//	go run -C bench . -workload batch-int -seed 7 -seconds 15 -trace 0
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const defaultSeed = 2024

//go:embed golden.json
var goldenJSON []byte

// goldenFile is golden.json: per workload and key, the fingerprint of
// the float logits at the default seed.
type goldenFile struct {
	Seed      uint64                          `json:"seed"`
	Workloads map[string]map[string]goldenKey `json:"workloads"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and end with the result as one JSON line (default: run them all)")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed: arrival times, key popularity and order, image pixels")
		seconds  = flag.Int("seconds", 15, "measured time per workload")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics (tracing off), 1 the per-layer metrics (traced pass)")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans here as JSON lines")
		aa       = flag.Bool("aa", false, "run every workload twice and fail if an end-to-end metric differs between the two by more than its bound")
		scratch  = flag.String("scratch", "", "directory for snapshot dirs (default: the system temp dir)")
		update   = flag.Bool("update-golden", false, "rewrite golden.json from this run (default seed only)")
	)
	flag.Parse()
	// The box has two cores; pinning makes the client count and the
	// workers' pool size the same everywhere the benchmark runs.
	runtime.GOMAXPROCS(2)

	var golden goldenFile
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fatal(fmt.Errorf("golden.json: %w", err))
	}
	if *scratch != "" {
		if err := os.MkdirAll(*scratch, 0o755); err != nil {
			fatal(err)
		}
	}
	p := params{
		seed: *seed, window: time.Duration(*seconds) * time.Second, warm: 2 * time.Second,
		setups: 3, e2e: true, layers: true, scratch: *scratch, golden: golden.Workloads,
		logf: func(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) },
	}
	if golden.Seed != defaultSeed || *update {
		p.golden = nil
	}
	if *workload != "" {
		p.e2e, p.layers = *trace == 0, *trace != 0
		if p.layers {
			p.setups = 1 // set-up time is an end-to-end metric; the traced run does not report it
		}
	}
	printHeader(p)
	traceFile, err := newSpanWriter(*traceOut)
	if err != nil {
		fatal(err)
	}

	failed, err := run(context.Background(), p, traceFile, *workload, *aa, *update)
	if err := firstErr(err, traceFile.close()); err != nil {
		fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

// run does what the flags ask and reports whether any operation failed
// (in a single-workload run the JSON line says so instead).
func run(ctx context.Context, p params, traceFile *spanWriter, workload string, aa, update bool) (failed bool, err error) {
	switch {
	case workload != "":
		res, err := runWorkload(ctx, workload, p)
		if err != nil {
			return false, err
		}
		res.print(p)
		if err := traceFile.write(res.Spans); err != nil {
			return false, err
		}
		return false, res.printJSONLine(p)
	case aa:
		a, errA := runAll(ctx, p, traceFile)
		b, errB := runAll(ctx, p, traceFile)
		if err := firstErr(errA, errB); err != nil {
			return false, err
		}
		return !compareAA(a, b) || failures(a)+failures(b) > 0, nil
	default:
		all, err := runAll(ctx, p, traceFile)
		if err != nil {
			return false, err
		}
		if update {
			err = writeGolden(all)
		}
		return failures(all) > 0, err
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func runWorkload(ctx context.Context, name string, p params) (*result, error) {
	if name == "cold-keys" {
		return runCold(ctx, p)
	}
	for _, w := range classifyWorkloads {
		if w.name == name {
			return w.run(ctx, p)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runAll runs every workload in one process. Each result's spans go to
// the trace file and are dropped at once: kept, they would sit in the
// next workload's live heap.
func runAll(ctx context.Context, p params, traceFile *spanWriter) ([]*result, error) {
	var all []*result
	for _, w := range workloadSpecs {
		res, err := runWorkload(ctx, w.Name, p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		res.print(p)
		if err := traceFile.write(res.Spans); err != nil {
			return nil, err
		}
		res.Spans = nil
		all = append(all, res)
	}
	return all, nil
}

func failures(all []*result) int {
	n := 0
	for _, res := range all {
		n += res.Failed
	}
	return n
}

// printHeader says what is being measured on what.
func printHeader(p params) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	fmt.Printf("quq bench: commit %s, %s, nproc %d, GOMAXPROCS %d, cpu %q\n", commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu)
	fmt.Printf("seed %d, 2 client connections, %s measured per workload after %s warm-up per window, %d set-ups timed\n", p.seed, p.window, p.warm, p.setups)
}

// print renders one workload's metrics by name and unit.
func (r *result) print(p params) {
	why := ""
	for _, w := range workloadSpecs {
		if w.Name == r.Workload {
			why = w.Why
		}
	}
	fmt.Printf("workload %s: attempted %d failed %d -- %s\n", r.Workload, r.Attempted, r.Failed, why)
	for _, ph := range r.Phases {
		for _, e := range ph.Errs {
			fmt.Printf("  FAILED (phase %s): %s\n", ph.Name, e)
		}
	}
	for _, prob := range r.Problems {
		fmt.Printf("  FAILED: %s\n", prob)
	}
	if p.e2e {
		for _, m := range endToEnd {
			fmt.Printf("  %-28s %14.6g %-8s (%s is better, bound %.0f%%)\n", m.Name, r.E2E[m.Name], m.Unit, m.Better, 100*m.Bound)
		}
	}
	if r.Layers != nil {
		for _, m := range perLayer {
			fmt.Printf("  %-28s %14.6g %s\n", m.Name, r.Layers[m.Name], m.Unit)
		}
		l := r.Layers
		fmt.Printf("  accounting: client.hop + shard.hop + serve.handler = %.3f ms of a %.3f ms traced request; wire + sched + forward_batch = %.3f ms of a %.3f ms handler\n",
			l["client.hop_ms"]+l["shard.hop_ms"]+l["serve.handler_ms"], l["client.traced_req_ms"],
			l["serve.wire_ms"]+l["serve.sched_ms"]+l["ptq.forward_batch_ms"], l["serve.handler_ms"])
	}
}

// printJSONLine ends the run with the contract's result line: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one.
func (r *result) printJSONLine(p params) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs, vals := endToEnd, r.E2E
	if p.layers {
		specs, vals = perLayer, r.Layers
	}
	metrics := map[string]value{}
	correct := r.Failed == 0
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			correct, v = false, 0
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(r.Attempted, 1), "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// compareAA prints two result sets side by side with each end-to-end
// metric's relative difference against its bound, and reports whether
// every one stayed inside.
func compareAA(a, b []*result) bool {
	ok := true
	fmt.Printf("A/A: %-14s %-14s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range a {
		for _, m := range endToEnd {
			x, y := a[i].E2E[m.Name], b[i].E2E[m.Name]
			diff := math.Abs(x-y) / math.Min(x, y)
			verdict := ""
			if !(diff <= m.Bound) {
				ok, verdict = false, "  EXCEEDS"
			}
			fmt.Printf("A/A: %-14s %-14s %14.6g %14.6g %7.1f%% %5.0f%%%s\n", a[i].Workload, m.Name, x, y, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}

// writeGolden rewrites golden.json from a run at the default seed, one
// key a line.
func writeGolden(all []*result) error {
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"seed\": %d,\n  \"workloads\": {\n", defaultSeed)
	for i, res := range all {
		keys := make([]string, 0, len(res.Golden))
		//quq:maporder-ok the keys are sorted before anything is written
		for k := range res.Golden {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "    %q: {\n", res.Workload)
		for j, k := range keys {
			line, err := json.Marshal(res.Golden[k])
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "      %q: %s%s\n", k, line, comma(j, len(keys)))
		}
		fmt.Fprintf(&b, "    }%s\n", comma(i, len(all)))
	}
	b.WriteString("  }\n}\n")
	return os.WriteFile("golden.json", []byte(b.String()), 0o644)
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}
