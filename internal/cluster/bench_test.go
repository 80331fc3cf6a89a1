package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// BenchmarkFleetMissPhaseScaling is the fleet's scaling gate. For 1, 2
// and 4 single-slot workers it runs a closed-loop miss phase (every key
// cold: execution-bound, the scaling signal), then a hit phase over the
// same keys (routing plus cache), and logs one table row per topology.
// It fails on any non-200 answer, or when miss-phase throughput grows
// by less than 3.0x from 1 to 4 workers. Four workers need four CPUs,
// so the gate is a benchmark: neither go test ./... nor -race runs it.
//
//	go test -run '^$' -bench '^BenchmarkFleetMissPhaseScaling$' -benchtime 1x -v ./internal/cluster
func BenchmarkFleetMissPhaseScaling(b *testing.B) {
	const (
		requests   = 96  // per phase
		keys       = 96  // distinct cache keys, one per repeat count
		repeatBase = 128 // the lightest key's execution weight
		clients    = 12
		minScaling = 3.0
		timeout    = 30 * time.Second
	)
	client := &http.Client{Timeout: timeout}
	for i := 0; i < b.N; i++ {
		b.Logf("%-7s %8s %11s %11s %8s %10s %10s %8s", "workers",
			"miss_rps", "miss_p50_ms", "miss_p99_ms", "hit_rps", "hit_p50_ms", "hit_p99_ms", "hit_rate")
		var missRPS []float64
		for _, n := range []int{1, 2, 4} {
			// One execution slot per worker: the pool, not the client or
			// the router, is the bottleneck, so workers add capacity.
			f := NewFleet(n, serve.Config{
				Workers: 1, Queue: requests + clients, CacheSize: 4 * keys,
				Deadline: timeout, MaxDeadline: timeout,
			}, RouterConfig{})
			urls := make([]string, keys)
			for k := range urls {
				urls[k] = fmt.Sprintf("%s/run?scenario=stack-ret&repeat=%d", f.URL(), repeatBase+k)
			}
			miss := runPhase(client, urls, requests, clients, fmt.Sprintf("cl-%d-miss", n))
			hit := runPhase(client, urls, requests, clients, fmt.Sprintf("cl-%d-hit", n))
			f.Close()
			b.Logf("%-7d %8.1f %11.2f %11.2f %8.1f %10.2f %10.2f %8.2f", n,
				miss.rps, miss.p50, miss.p99, hit.rps, hit.p50, hit.p99, hit.hitRate)
			for _, p := range []phaseStats{miss, hit} {
				if p.failed > 0 {
					b.Errorf("%d workers: %d of %d requests not answered 200; first: %v",
						n, p.failed, requests, p.firstErr)
				}
			}
			missRPS = append(missRPS, miss.rps)
		}
		if b.Failed() {
			b.FailNow()
		}
		scaling := missRPS[2] / missRPS[0]
		b.ReportMetric(scaling, "miss-scaling")
		b.Logf("miss-phase scaling 1->4 workers: %.2fx", scaling)
		if scaling < minScaling {
			b.Fatalf("miss-phase throughput scaled %.2fx from 1 to 4 workers, want at least %.1fx", scaling, minScaling)
		}
	}
}

// phaseStats summarises one closed-loop phase: throughput and latency
// over the requests answered 200, and the failures.
type phaseStats struct {
	rps, p50, p99, hitRate float64
	failed                 int
	firstErr               error
}

// runPhase keeps clients requests in flight over urls, round-robin,
// until n have answered. Each request carries its own client trace ID.
func runPhase(client *http.Client, urls []string, n, clients int, tracePrefix string) phaseStats {
	var (
		next atomic.Int64
		mu   sync.Mutex
		lats []float64
		hits int
		st   phaseStats
		wg   sync.WaitGroup
	)
	start := time.Now()
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				cache, lat, err := fetch(client, urls[int(i)%len(urls)], fmt.Sprintf("%s-%d", tracePrefix, i))
				mu.Lock()
				if err != nil {
					if st.failed++; st.firstErr == nil {
						st.firstErr = err
					}
				} else {
					lats = append(lats, float64(lat.Microseconds())/1000)
					if cache == "hit" || cache == "coalesced" {
						hits++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if ok := len(lats); ok > 0 {
		st.rps = float64(ok) / time.Since(start).Seconds()
		st.hitRate = float64(hits) / float64(ok)
		sort.Float64s(lats)
		st.p50, st.p99 = nearestRank(lats, 0.50), nearestRank(lats, 0.99)
	}
	return st
}

// fetch GETs one /run URL and returns its cache token and latency; any
// answer but a 200 with a JSON body is an error.
func fetch(client *http.Client, url, traceID string) (string, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return "", 0, err
	}
	req.Header.Set(serve.TraceHeader, traceID)
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return "", 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("%s: %d %s", url, resp.StatusCode, body)
	}
	var out struct {
		Cache string `json:"cache"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return "", 0, fmt.Errorf("%s: %v", url, err)
	}
	return out.Cache, lat, nil
}

// nearestRank returns the q-quantile of sorted values.
func nearestRank(sorted []float64, q float64) float64 {
	return sorted[max(int(math.Ceil(q*float64(len(sorted))))-1, 0)]
}
