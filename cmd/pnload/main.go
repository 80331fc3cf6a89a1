// Command pnload drives the serving tier's cluster sweep, the one load
// gate that still runs as a process:
//
//	pnload -cluster [-nodes 1,2,4,8] [-requests 192]
//	       [-cluster-keys 48] [-cluster-repeat 8]
//	       [-cluster-concurrency 16] [-ring-seed 1]
//	       [-cluster-out BENCH_CLUSTER.json] [-min-scaling 3.0]
//	pnload -cluster -url http://127.0.0.1:8090 [...]
//
// -cluster benchmarks the sharded serving tier. Without -url it builds
// an in-process fleet per -nodes count — real workers with
// single-slot execution pools behind real listeners, a real router in
// front — and measures a cold miss phase (execution-bound: the
// scaling signal) then a hit phase (routing + cache) over the same
// key set, writing throughput, latency percentiles, and hit rate per
// node count to BENCH_CLUSTER.json. -min-scaling gates near-linear
// scaling of miss-phase throughput from the smallest to the largest
// topology. With -url it measures one external router (the CI smoke
// topology, where a worker is killed mid-sweep and zero failed
// requests is the gate). Exit status is non-zero when any request
// failed for a non-shedding reason; shed requests (structured 429s
// and 503s) are the server working as designed and are reported, not
// failed.
//
// -retries N retries shed requests (429/503) up to N times per
// request, honoring the server's Retry-After (and millisecond
// X-PN-Retry-After-MS) backoff hint, capped by -retry-max-sleep;
// retry counts are recorded per phase.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pnload:", err)
		os.Exit(1)
	}
}

// traceHeader tags every /run request with a unique client trace ID
// so server-side traces can be correlated with load samples.
const traceHeader = "X-PN-Trace-Id"

// latencyStats summarises one level's latency distribution in
// milliseconds.
type latencyStats struct {
	P50  float64 `json:"p50_ms"`
	P95  float64 `json:"p95_ms"`
	P99  float64 `json:"p99_ms"`
	Mean float64 `json:"mean_ms"`
	Max  float64 `json:"max_ms"`
}

// levelReport is one closed-loop phase at a fixed concurrency.
type levelReport struct {
	Concurrency int `json:"concurrency"`
	Requests    int `json:"requests"`
	OK          int `json:"ok"`
	Shed        int `json:"shed"`
	Errors      int `json:"errors"`
	// Retries counts shed responses that were retried after honoring
	// the server's Retry-After hint.
	Retries   int `json:"retries,omitempty"`
	CacheHits int `json:"cache_hits"`
	// CacheHitRate is hits (hit + coalesced) over completed-OK requests.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// ShedRate is shed over issued requests.
	ShedRate float64 `json:"shed_rate"`
	// ThroughputRPS is completed-OK requests per wall-clock second.
	ThroughputRPS float64      `json:"throughput_rps"`
	WallMS        float64      `json:"wall_ms"`
	Latency       latencyStats `json:"latency"`
}

// sample is one completed request.
type sample struct {
	ok        bool
	shed      bool
	cacheHit  bool
	latencyMS float64
	retries   int
}

// isDrainingReject reports whether a shed body carries the structured
// draining rejection — the one shedding reason a retry can never
// outwait (the node is going away; the router re-routes around it).
func isDrainingReject(body []byte) bool {
	var er struct {
		Reject *service.Rejection `json:"reject"`
	}
	if json.Unmarshal(body, &er) != nil {
		return false
	}
	return er.Reject != nil && er.Reject.Reason == service.ReasonDraining
}

// retryDelay reads the server's backoff hint: the millisecond
// X-PN-Retry-After-MS header when present, the standard whole-second
// Retry-After otherwise, a small default when neither parses. The
// result is capped so a pathological hint cannot stall the sweep.
func retryDelay(h http.Header, cap time.Duration) time.Duration {
	d := 50 * time.Millisecond
	if v := h.Get("X-PN-Retry-After-MS"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			d = time.Duration(ms) * time.Millisecond
		}
	} else if v := h.Get("Retry-After"); v != "" {
		if sec, err := strconv.ParseInt(v, 10, 64); err == nil && sec > 0 {
			d = time.Duration(sec) * time.Second
		}
	}
	if d > cap {
		d = cap
	}
	return d
}

// issue performs one request and classifies it, retrying shed
// responses (429/503) up to retries times with the server's own
// Retry-After backoff. The recorded latency spans all attempts — the
// time the client actually waited for an answer.
func issue(client *http.Client, u, traceID string, retries int, maxSleep time.Duration) sample {
	start := time.Now()
	var s sample
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			return s
		}
		if traceID != "" {
			req.Header.Set(traceHeader, traceID)
		}
		resp, err := client.Do(req)
		if err != nil {
			s.latencyMS = float64(time.Since(start).Microseconds()) / 1000
			return s
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		s.latencyMS = float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			return s
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var rr struct {
				Cache string `json:"cache"`
			}
			if json.Unmarshal(body, &rr) != nil {
				return s
			}
			s.ok = true
			s.cacheHit = rr.Cache == "hit" || rr.Cache == "coalesced"
			return s
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// A draining node never recovers for this request — retrying
			// it only burns the budget sleeping, so stop immediately.
			if attempt < retries && !isDrainingReject(body) {
				s.retries++
				time.Sleep(retryDelay(resp.Header, maxSleep))
				continue
			}
			s.shed = true
			return s
		default:
			return s
		}
	}
}

func summarize(lats []float64) latencyStats {
	var st latencyStats
	if len(lats) == 0 {
		return st
	}
	sort.Float64s(lats)
	sum := 0.0
	for _, v := range lats {
		sum += v
	}
	st.P50 = round4(percentile(lats, 0.50))
	st.P95 = round4(percentile(lats, 0.95))
	st.P99 = round4(percentile(lats, 0.99))
	st.Mean = round4(sum / float64(len(lats)))
	st.Max = round4(lats[len(lats)-1])
	return st
}

// percentile returns the q-quantile of sorted values (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func round4(v float64) float64 { return math.Round(v*10000) / 10000 }

func parseLevels(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid concurrency level %q", p)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no concurrency levels")
	}
	return out, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pnload", flag.ContinueOnError)
	base := fs.String("url", "", "cluster mode: external router base URL (e.g. http://127.0.0.1:8090)")
	requests := fs.Int("requests", 64, "cluster mode: requests per phase")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	retries := fs.Int("retries", 0, "retry shed (429/503) /run requests this many times, honoring Retry-After")
	retryMaxSleep := fs.Duration("retry-max-sleep", 2*time.Second, "cap on a single Retry-After backoff sleep")
	clusterMode := fs.Bool("cluster", false, "run the cluster sweep: in-process fleets per -nodes count, or one external router when -url is set")
	nodesFlag := fs.String("nodes", "1,2,4,8", "cluster mode: comma list of in-process worker counts to sweep")
	clusterOut := fs.String("cluster-out", "BENCH_CLUSTER.json", "cluster artifact path ('-' = stdout only)")
	clusterKeys := fs.Int("cluster-keys", 48, "cluster mode: distinct cache keys in the workload")
	clusterRepeat := fs.Int("cluster-repeat", 8, "cluster mode: smallest per-request repeat count (execution weight)")
	clusterConc := fs.Int("cluster-concurrency", 16, "cluster mode: fixed client concurrency")
	ringSeed := fs.Uint64("ring-seed", 1, "cluster mode: consistent-hash placement seed for in-process fleets")
	minScaling := fs.Float64("min-scaling", -1, "cluster mode: fail unless miss-phase throughput scales by this factor from the smallest to the largest node count (negative = no check)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*clusterMode {
		return fmt.Errorf("want -cluster")
	}
	nodes, err := parseLevels(*nodesFlag)
	if err != nil {
		return fmt.Errorf("-nodes: %w", err)
	}
	return runClusterSweep(out, clusterOpts{
		url: *base, nodes: nodes, keys: *clusterKeys, repeatBase: *clusterRepeat,
		requests: *requests, concurrency: *clusterConc, ringSeed: *ringSeed,
		retries: *retries, maxSleep: *retryMaxSleep,
		minScaling: *minScaling, outFile: *clusterOut,
	}, *timeout)
}
