package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// outcome is one request's answer as a load client sees it: the status
// code and, on success, the cache token.
type outcome struct {
	Code  int    `json:"code"`
	Cache string `json:"cache"`
}

// sweepCounts tallies a closed loop's outcomes. Shed requests (429 and
// 503) are the server refusing load as designed, not failures.
type sweepCounts struct{ ok, hits, shed, failed int }

func (c *sweepCounts) add(o outcome) {
	switch o.Code {
	case http.StatusOK:
		c.ok++
		if o.Cache == service.CacheHit || o.Cache == service.CacheCoalesced {
			c.hits++
		}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		c.shed++
	default:
		c.failed++
	}
}

// closedLoop keeps c callers busy until n request slots are spent.
// Each call claims up to k consecutive slots [lo, hi) and returns one
// outcome per slot.
func closedLoop(c, n, k int, call func(lo, hi int) []outcome) sweepCounts {
	var (
		next   atomic.Int64
		mu     sync.Mutex
		counts sweepCounts
		wg     sync.WaitGroup
	)
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(k))) - k
				if lo >= n {
					return
				}
				out := call(lo, min(lo+k, n))
				mu.Lock()
				for _, o := range out {
					counts.add(o)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return counts
}

// TestClosedLoopSweep drives Handler(), configured as pnserve's flag
// defaults configure it, through two closed-loop workloads:
//
//   - After one warm pass, concurrency 1, 2 and 4 with 48 requests
//     each, round-robin over E1, E3, E9 and bss-overflow, every /run
//     carrying its own trace ID. No request may fail for a reason other
//     than shedding, and at least half must be cache hits.
//   - No-cache /runbatch calls of 8 over bss-overflow, heap-overflow
//     and stack-ret at concurrency 2 and 4, 48 requests each: every
//     item executes, and none may fail.
func TestClosedLoopSweep(t *testing.T) {
	srv := NewServer(Config{
		Workers: 8, Queue: 64, CacheSize: 512,
		Deadline: 15 * time.Second, MaxDeadline: time.Minute,
		TenantRate: 200, TenantBurst: 400, Aging: time.Second,
		BreakerThreshold: 5, BreakerCooldown: 2 * time.Second,
		TraceCap: service.DefaultTraceCapacity,
	})
	t.Cleanup(srv.Service().Drain)
	h := srv.Handler()

	ids := []string{"E1", "E3", "E9", "bss-overflow"}
	run := func(id, traceID string) outcome {
		param := "scenario"
		if strings.HasPrefix(id, "E") {
			param = "experiment"
		}
		req := httptest.NewRequest(http.MethodGet, "/run?"+param+"="+id, nil)
		if traceID != "" {
			req.Header.Set(TraceHeader, traceID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var o outcome
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &o); err != nil {
				t.Errorf("/run %s: %v", id, err)
				return outcome{}
			}
		}
		o.Code = rec.Code
		return o
	}
	for _, id := range ids {
		if o := run(id, ""); o.Code != http.StatusOK {
			t.Fatalf("warm-up /run %s = %d", id, o.Code)
		}
	}
	var cached sweepCounts
	for _, c := range []int{1, 2, 4} {
		got := closedLoop(c, 48, 1, func(lo, _ int) []outcome {
			return []outcome{run(ids[lo%len(ids)], fmt.Sprintf("sweep-c%d-s%d", c, lo))}
		})
		t.Logf("cached  c=%d: %+v", c, got)
		cached.ok += got.ok
		cached.hits += got.hits
		cached.shed += got.shed
		cached.failed += got.failed
	}
	if cached.failed != 0 {
		t.Errorf("cached sweep: %d requests failed, want 0 (%+v)", cached.failed, cached)
	}
	if cached.ok == 0 || float64(cached.hits)/float64(cached.ok) < 0.5 {
		t.Errorf("cached sweep hit rate %d/%d, want at least 0.5", cached.hits, cached.ok)
	}

	scenarios := []string{"bss-overflow", "heap-overflow", "stack-ret"}
	batch := func(lo, hi int) []outcome {
		var body struct {
			Requests []service.Request `json:"requests"`
		}
		for i := lo; i < hi; i++ {
			body.Requests = append(body.Requests, service.Request{Scenario: scenarios[i%len(scenarios)], NoCache: true})
		}
		out := make([]outcome, hi-lo)
		blob, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return out
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runbatch", bytes.NewReader(blob)))
		var br struct {
			Results []outcome `json:"results"`
		}
		switch {
		case rec.Code != http.StatusOK:
			for i := range out {
				out[i].Code = rec.Code
			}
		case json.Unmarshal(rec.Body.Bytes(), &br) != nil || len(br.Results) != len(out):
			t.Errorf("/runbatch body: %s", rec.Body.Bytes())
		default:
			out = br.Results
		}
		return out
	}
	for _, c := range []int{2, 4} {
		got := closedLoop(c, 48, 8, batch)
		t.Logf("no-cache batch c=%d: %+v", c, got)
		if got.failed != 0 || got.ok+got.shed != 48 {
			t.Errorf("no-cache batch sweep at c=%d: %+v, want 48 answered and none failed", c, got)
		}
	}
}
