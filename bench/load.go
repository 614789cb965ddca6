package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// phase is the load accounting of one measured window and the warm-up
// that precedes it. Sent/OK/Failed, Lat and Images cover the window
// only; the warm-up's requests are verified too and counted apart.
type phase struct {
	Name    string
	Open    bool    // open loop on a schedule; else closed loop
	Rate    float64 // offered req/s (open loop)
	Clients int
	Window  time.Duration

	Sent, OK, Failed     int
	WarmSent, WarmFailed int
	Images               int       // images in OK responses
	Lat                  []float64 // ms, OK requests; open loop: from the due time
	Late                 []float64 // ms the open-loop generator woke after a due time
	Errs                 []string  // first few failures
	Steal                float64   // share of the box's CPU time the hypervisor took away meanwhile

	// The best of the window's slices: highest throughput, lowest p50,
	// lowest p90. See slice.
	BestImgPerS, BestP50, BestP90 float64
}

// slices is how many equal parts every measured window is cut into.
const slices = 10

// slice files the window's OK requests into equal slices by at (an
// offset from the window's start: the due time in an open loop, the
// time the response arrived in a closed one) and keeps the best
// slice's throughput, p50 and p90. These are the end-to-end rows. The
// box this runs on pauses for half a second now and then and drifts by
// a tenth over tens of seconds; interference only ever slows a slice
// down, so the least disturbed slice is the reading that repeats from
// run to run (its spread over ten seeds is about half the whole
// window's). The whole-window values are printed beside it.
func (p *phase) slice(at []time.Duration, perReq int) {
	lat := make([][]float64, slices)
	for i, a := range at {
		s := min(int(a*slices/p.Window), slices-1)
		lat[s] = append(lat[s], p.Lat[i])
	}
	p.BestP50, p.BestP90 = math.Inf(1), math.Inf(1)
	for _, l := range lat {
		if len(l) == 0 {
			continue
		}
		p.BestImgPerS = max(p.BestImgPerS, float64(len(l)*perReq)*slices/p.Window.Seconds())
		p.BestP50 = min(p.BestP50, median(l))
		p.BestP90 = min(p.BestP90, percentile(l, 90))
	}
}

func (p *phase) fail(warm bool, err error) {
	if warm {
		p.WarmFailed++
	} else {
		p.Failed++
	}
	if len(p.Errs) < 3 {
		p.Errs = append(p.Errs, err.Error())
	}
}

func (p *phase) imgPerS() float64 { return float64(p.Images) / p.Window.Seconds() }

// outcome is one request as a client goroutine saw it.
type outcome struct {
	entry    schedEntry
	from, to time.Time // latency interval: due (open) or send (closed) to response read
	late     time.Duration
	slept    bool
	err      error
}

// target is where a phase sends and how it checks what comes back.
type target struct {
	hc     *http.Client
	url    string // classify endpoint
	in     *inputs
	perReq int
}

func (t target) do(ctx context.Context, e schedEntry) error {
	status, _, body, err := post(ctx, t.hc, t.url, t.in.bodies[e.Key][e.Body])
	if err != nil {
		return err
	}
	return t.in.verify(e.Key, e.Body, status, body)
}

// runOpen drives sched open loop: clients goroutines (one connection
// each) take requests in due order, sleep until each is due and send.
// A request whose turn comes after its due time — every connection was
// busy — is sent at once and still timed from when it was due, so a
// stall is charged to the requests queued behind it. Requests due
// before warm are the discarded warm-up.
func runOpen(ctx context.Context, t target, name string, sched []schedEntry, rate float64, warm, window time.Duration, clients int) phase {
	p := phase{Name: name, Open: true, Rate: rate, Clients: clients, Window: window}
	out := make([]outcome, len(sched))
	next := make(chan int, len(sched)) // sized to the sends: the whole schedule is queued up front
	for i := range sched {
		next <- i
	}
	close(next)
	cpu := readCPUTimes()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o := &out[i]
				o.entry = sched[i]
				o.from = start.Add(o.entry.Due)
				if d := time.Until(o.from); d > 0 {
					time.Sleep(d)
					o.slept, o.late = true, time.Since(o.from)
				}
				o.err = t.do(ctx, o.entry)
				o.to = time.Now()
			}
		}()
	}
	wg.Wait()
	p.Steal = cpu.stealSince()
	var at []time.Duration
	for _, o := range out {
		isWarm := o.entry.Due < warm
		if isWarm {
			p.WarmSent++
		} else {
			p.Sent++
		}
		if o.err != nil {
			p.fail(isWarm, o.err)
			continue
		}
		if isWarm {
			continue
		}
		p.OK++
		p.Images += t.perReq
		p.Lat = append(p.Lat, ms(o.to.Sub(o.from).Seconds()))
		at = append(at, o.entry.Due-warm)
		if o.slept {
			p.Late = append(p.Late, ms(o.late.Seconds()))
		}
	}
	p.slice(at, t.perReq)
	return p
}

// runClosed drives len(seqs) closed-loop clients, each cycling its own
// sequence and sending its next request when the previous one returns,
// for warm+window. A request counts towards the window when its
// response arrives inside it.
func runClosed(ctx context.Context, t target, name string, seqs [][]schedEntry, warm, window time.Duration) phase {
	p := phase{Name: name, Clients: len(seqs), Window: window}
	cpu := readCPUTimes()
	start := time.Now()
	warmEnd, deadline := start.Add(warm), start.Add(warm+window)
	outs := make([][]outcome, len(seqs))
	var wg sync.WaitGroup
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				o := outcome{entry: seqs[c][i%len(seqs[c])], from: time.Now()}
				if !o.from.Before(deadline) {
					return
				}
				o.err = t.do(ctx, o.entry)
				o.to = time.Now()
				outs[c] = append(outs[c], o)
			}
		}(c)
	}
	wg.Wait()
	p.Steal = cpu.stealSince()
	var at []time.Duration
	for _, co := range outs {
		for _, o := range co {
			if o.to.After(deadline) && o.err == nil {
				continue // answered after the window closed: belongs to no window
			}
			isWarm := o.to.Before(warmEnd)
			if isWarm {
				p.WarmSent++
			} else {
				p.Sent++
			}
			if o.err != nil {
				p.fail(isWarm, o.err)
				continue
			}
			if isWarm {
				continue
			}
			p.OK++
			p.Images += t.perReq
			p.Lat = append(p.Lat, ms(o.to.Sub(o.from).Seconds()))
			at = append(at, o.to.Sub(warmEnd))
		}
	}
	p.slice(at, t.perReq)
	return p
}

// describe renders the phase's load accounting line.
func (p *phase) describe() string {
	loop := fmt.Sprintf("closed loop, %d clients", p.Clients)
	if p.Open {
		loop = fmt.Sprintf("open loop, %.0f req/s offered on %d connections, generator late p99 %.3f ms", p.Rate, p.Clients, percentile(p.Late, 99))
	}
	pct, beyond := supportedPercentile(len(p.Lat))
	return fmt.Sprintf("phase %-6s %s, %.1fs window: sent %d ok %d failed %d (warm-up sent %d failed %d); %.1f img/s; p50 %.3f ms, p%g %.3f ms (%d samples, %d beyond); best of %d slices: %.1f img/s, p50 %.3f ms, p90 %.3f ms; hypervisor stole %.1f%% of the CPU",
		p.Name, loop, p.Window.Seconds(), p.Sent, p.OK, p.Failed, p.WarmSent, p.WarmFailed,
		p.imgPerS(), median(p.Lat), pct, percentile(p.Lat, pct), len(p.Lat), beyond, slices, p.BestImgPerS, p.BestP50, p.BestP90, 100*p.Steal)
}

// cpuTimes is the first line of /proc/stat: total and stolen jiffies
// over all CPUs. On a box shared under a hypervisor the stolen share
// says whether a window was measured or mostly waited out; it is
// reported, never used to correct a reading.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() cpuTimes {
	var c cpuTimes
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; the rest repeat user time
			c.total += v
		}
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// stealSince returns the stolen share of CPU time since c was read.
func (c cpuTimes) stealSince() float64 {
	now := readCPUTimes()
	if now.total <= c.total {
		return 0
	}
	return (now.steal - c.steal) / (now.total - c.total)
}
