package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// serverConfig pins the server every workload runs against: one worker
// per CPU, the pnserve default queue and result-cache sizes, and every
// admission layer (quota, limiter, breaker) off.
func serverConfig(w workload) serve.Config {
	return serve.Config{
		Workers:   runtime.NumCPU(),
		Queue:     64,
		CacheSize: 512,
		Compiled:  w.compiled,
	}
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}, url: base}
}

// send posts one request and reads the whole reply. The returned body
// is valid until the next send.
func (c *client) send(o *op) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// bench is one live server behind a loopback listener plus its clients.
type bench struct {
	srv     *serve.Server
	ts      *httptest.Server
	clients []*client
}

// startBench builds a server for w and serves handler(srv) on a
// loopback listener, with nclients clients.
func startBench(w workload, nclients int, handler func(*serve.Server) http.Handler) *bench {
	srv := serve.NewServer(serverConfig(w))
	b := &bench{srv: srv, ts: httptest.NewServer(handler(srv))}
	for i := 0; i < nclients; i++ {
		b.clients = append(b.clients, newClient(b.ts.URL))
	}
	return b
}

// close stops the listener and the server's workers.
func (b *bench) close() {
	for _, c := range b.clients {
		c.tr.CloseIdleConnections()
	}
	b.ts.Close()
	b.srv.BeginDrain()
}

// sample is one successful request of a pass.
type sample struct {
	done time.Duration // completion, from the start of the pass
	lat  time.Duration
}

// sampleChunks grows in fixed-size chunks, so the benchmark's own
// memory rises with the request count alone and never by a doubling
// reallocation in the middle of a pass.
type sampleChunks [][]sample

func (c *sampleChunks) add(x sample) {
	n := len(*c)
	if n == 0 || len((*c)[n-1]) == cap((*c)[n-1]) {
		*c = append(*c, make([]sample, 0, 4096))
		n++
	}
	(*c)[n-1] = append((*c)[n-1], x)
}

// loadResult is what one closed-loop pass measured.
type loadResult struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
}

// reconnectEvery is how long a client keeps one keep-alive connection
// before it opens a fresh one. Over a single connection the placement
// of the client and its server goroutine on the CPUs holds for the
// whole run, and that placement alone moved throughput by 10–15%
// between otherwise identical runs; reconnecting a few times a second
// averages over placements at the cost of one loopback dial per
// thousand-odd requests.
const reconnectEvery = 250 * time.Millisecond

// drive runs the closed loop: every client sends its next request only
// after the previous reply has been read and checked. Requests are
// claimed in stream order from position from. The pass ends after
// count requests when count > 0, otherwise at deadline.
func (b *bench) drive(s *stream, or *oracle, from, count int, deadline time.Time) loadResult {
	var cursor atomic.Int64
	cursor.Store(int64(from))
	parts := make([]loadResult, len(b.clients))
	chunks := make([]sampleChunks, len(b.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range b.clients {
		wg.Add(1)
		go func(part *loadResult, ok *sampleChunks, c *client) {
			defer wg.Done()
			last := time.Now()
			for {
				i := int(cursor.Add(1) - 1)
				if count > 0 && i >= from+count || count <= 0 && !time.Now().Before(deadline) {
					return
				}
				if time.Since(last) >= reconnectEvery {
					c.tr.CloseIdleConnections()
					last = time.Now()
				}
				o := s.at(i)
				t0 := time.Now()
				code, body, err := c.send(o)
				lat := time.Since(t0)
				part.attempted++
				if err == nil {
					_, err = or.check(o, code, body)
				}
				if err != nil {
					part.failed++
					if part.firstErr == nil {
						part.firstErr = err
					}
					continue
				}
				ok.add(sample{done: time.Since(start), lat: lat})
			}
		}(&parts[ci], &chunks[ci], c)
	}
	wg.Wait()
	var out loadResult
	for _, c := range chunks {
		for _, chunk := range c {
			out.samples = append(out.samples, chunk...)
		}
	}
	for _, p := range parts {
		out.attempted += p.attempted
		out.failed += p.failed
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// heapSampler tracks the live heap — what the last garbage collection
// found reachable — through runtime/metrics (no stop-the-world), as its
// peak within each of n windows of width. Live bytes leave out garbage
// not yet collected, so a peak does not hinge on when a collection
// happened to run.
type heapSampler struct {
	stop chan struct{}
	done chan []uint64
}

func startHeapSampler(n int, width, every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []uint64, 1)}
	start := time.Now()
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		peaks := make([]uint64, n)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if k := int(time.Since(start) / width); k < n {
				peaks[k] = max(peaks[k], sample[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				h.done <- peaks
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peaks stops the sampler and returns each window's peak in bytes.
func (h *heapSampler) peaks() []uint64 {
	close(h.stop)
	return <-h.done
}

// window is what the requests completing in one slice of a pass
// measured.
type window struct {
	throughput float64 // requests per second
	p50, p99   float64 // latency in milliseconds
}

// windows splits a deadline-bounded pass into n equal slices of span
// and measures each. Requests completing after the last slice are
// dropped.
func (r loadResult) windows(n int, span time.Duration) []window {
	width := span / time.Duration(n)
	lats := make([][]float64, n)
	for _, x := range r.samples {
		if k := int(x.done / width); k < n {
			lats[k] = append(lats[k], float64(x.lat)/float64(time.Millisecond))
		}
	}
	out := make([]window, n)
	for k, l := range lats {
		out[k] = window{float64(len(l)) / width.Seconds(), percentile(l, 50), percentile(l, 99)}
	}
	return out
}
