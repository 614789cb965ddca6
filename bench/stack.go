package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"quq/internal/serve"
	"quq/internal/shard"
)

// listener serves one handler on a loopback TCP port until close.
type listener struct {
	url  string
	srv  *http.Server
	done sync.WaitGroup
}

// listen serves h on the given loopback port, or on any free one when
// port is 0 or taken.
func listen(h http.Handler, port int) (*listener, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil && port != 0 {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}}
	l.done.Add(1)
	go func() {
		defer l.done.Done()
		// Serve returns ErrServerClosed on Shutdown; the windows judge the
		// server by its responses, not by this exit path.
		_ = l.srv.Serve(ln)
	}()
	return l, nil
}

func (l *listener) close(ctx context.Context) error {
	err := l.srv.Shutdown(ctx)
	l.done.Wait()
	return err
}

// worker is one quq-serve process's worth of state: the serving layer
// and the listener the measured windows reach it through.
type worker struct {
	srv *serve.Server
	ln  *listener
}

func bootWorker(cfg serve.Config, port int) (*worker, error) {
	s := serve.New(cfg)
	ln, err := listen(s.Handler(), port)
	if err != nil {
		return nil, err
	}
	return &worker{srv: s, ln: ln}, nil
}

func (w *worker) close(ctx context.Context) error {
	return errors.Join(w.ln.close(ctx), w.srv.Drain(ctx))
}

// stack is what one workload boots: workers, and for the fleet
// workload a quq-shard front over them. entry is where requests go in.
type stack struct {
	workers []*worker
	front   *shard.Front
	frontLn *listener
	entry   string
}

// fleetPort is where a fleet listens: the front on fleetPort, worker i
// on fleetPort+1+i (the traced pass's second listeners ten higher). The
// ring hashes backend addresses, so which worker owns which key — and
// with these keys, whether all three workers own any — depends on the
// ports; fixed ones make the placement part of the workload instead of
// a coin tossed per run. With these, worker 2 is first owner of three
// keys and worker 1 of the fourth, and every worker holds replicas.
const fleetPort = 47640

// workerPort is where worker i of a fleet based at port listens; a base
// of 0 leaves the choice to the system.
func workerPort(port, i int) int {
	if port == 0 {
		return 0
	}
	return port + 1 + i
}

// bootStack starts n workers on cfg, and a front with the given
// replication factor over them when replicas > 0. port is the fleet's
// base port; 0 lets the system choose, which is fine for a lone worker.
func bootStack(cfg serve.Config, n, replicas, port int) (*stack, error) {
	st := &stack{}
	for i := 0; i < n; i++ {
		w, err := bootWorker(cfg, workerPort(port, i))
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		st.workers = append(st.workers, w)
	}
	st.entry = st.workers[0].ln.url
	if replicas > 0 {
		var backends []string
		for _, w := range st.workers {
			backends = append(backends, w.ln.url)
		}
		st.front = shard.New(shard.Options{Backends: backends, Replicas: replicas})
		ln, err := listen(st.front.Handler(), port)
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		st.frontLn = ln
		st.entry = ln.url
	}
	return st, nil
}

// close stops the stack and waits for every goroutine it started.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if st.frontLn != nil {
		errs = append(errs, st.frontLn.close(ctx))
	}
	if st.front != nil {
		st.front.Close()
	}
	for _, w := range st.workers {
		errs = append(errs, w.close(ctx))
	}
	return errors.Join(errs...)
}

// newHTTPClient returns the load generator's client: one transport, so
// n concurrent callers hold n connections and reuse them.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        16,
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}
}

// post sends one JSON body and returns status, headers and the whole
// response body.
func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	if err := errors.Join(err, resp.Body.Close()); err != nil {
		return resp.StatusCode, resp.Header, nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, resp.Header, out, nil
}
