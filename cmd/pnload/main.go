// Command pnload is a closed-loop load generator for pnserve: for each
// concurrency level in a sweep it keeps exactly C requests in flight
// until the level's request budget is spent, then records throughput,
// latency percentiles (p50/p95/p99), cache hit rate, and shed rate.
// The sweep is written to BENCH_SERVE.json — the serving-throughput
// benchmark artifact whose schema is stable across PRs so the
// trajectory can be compared.
//
// Usage:
//
//	pnload -url http://127.0.0.1:8099 [-ids E1,E3,E9] [-levels 1,2,4,8]
//	       [-requests 64] [-out BENCH_SERVE.json] [-warm]
//	       [-min-hit-rate 0.5] [-priority normal]
//	       [-no-cache] [-batch 8] [-retries 2]
//
// Tenant-soak mode:
//
//	pnload -tenants [-seed 42] [-soak-duration 10s]
//	       [-tenant-out BENCH_TENANT.json]
//	       [-min-fair-share 0.8] [-max-starvation 0]
//
// Cluster-sweep mode:
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
// requests is the gate).
//
// -tenants runs the adversarial multi-tenant admission-control soak
// (greedy, bursty, and well-behaved tenants against per-tenant quotas,
// round-robin fair queueing with priority aging, and circuit breakers) as
// a deterministic discrete-event simulation — no server, no -url; the
// same seed always produces byte-identical BENCH_TENANT.json. Exit
// status is non-zero when the well-behaved tenant's completed fraction
// falls below -min-fair-share, when the starvation ratio exceeds
// -max-starvation, or when the greedy tenant was never rate-limited.
//
// -retries N retries shed requests (429/503) up to N times per
// request, honoring the server's Retry-After (and millisecond
// X-PN-Retry-After-MS) backoff hint, capped by -retry-max-sleep;
// retry counts are recorded per level.
//
// Each individual /run request is tagged with a unique X-PN-Trace-Id
// (disable with -trace=false) and the server's per-stage latency
// breakdown is harvested from the response, so every level reports
// stage percentiles — queue_wait p99 against execute p99 is the
// queueing-vs-execution split under rising concurrency.
//
// -no-cache forces execution on every request — a cache-miss-heavy
// sweep that measures the execution path (and the server's image
// template pool) instead of the result cache. -batch N groups requests
// into POST /runbatch calls of N, exercising the batched admission
// path; each item's recorded latency is its call's wall time.
//
// IDs matching E<number> are sent as experiment requests, anything
// else as scenario requests. Exit status is non-zero when any request
// failed for a non-shedding reason, or when -min-hit-rate is set and
// the workload's overall cache hit rate fell below it; shed requests
// (structured 429s) are the server working as designed and are
// reported, not failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pnload:", err)
		os.Exit(1)
	}
}

// Schema is the BENCH_SERVE.json schema tag. v2 added per-stage
// latency percentiles (queue_wait, execute, ...) harvested from the
// server's stage breakdown in each /run response.
const Schema = "pnserve-load/v2"

// traceHeader tags every individual /run request with a unique
// client trace ID so server-side traces can be correlated with load
// samples (and the stage breakdown is returned per request).
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

// levelReport is one concurrency level of the sweep.
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
	// Stages holds per-stage latency percentiles (queue_wait, execute,
	// clone, ...) aggregated from the server's per-request breakdown —
	// the split that shows whether overload latency is queueing or
	// execution. Individual /run calls only; /runbatch responses do not
	// carry per-item stages.
	Stages map[string]latencyStats `json:"stages,omitempty"`
}

// benchServe is the whole artifact.
type benchServe struct {
	Schema           string        `json:"schema"`
	URL              string        `json:"url"`
	IDs              []string      `json:"ids"`
	RequestsPerLevel int           `json:"requests_per_level"`
	Warmed           bool          `json:"warmed"`
	NoCache          bool          `json:"no_cache,omitempty"`
	Batch            int           `json:"batch,omitempty"`
	Levels           []levelReport `json:"levels"`
	Totals           struct {
		Requests     int     `json:"requests"`
		OK           int     `json:"ok"`
		Shed         int     `json:"shed"`
		Errors       int     `json:"errors"`
		Retries      int     `json:"retries,omitempty"`
		CacheHits    int     `json:"cache_hits"`
		CacheHitRate float64 `json:"cache_hit_rate"`
	} `json:"totals"`
}

var expIDPattern = regexp.MustCompile(`^E[0-9]+$`)

// runURL builds the /run request URL for one workload id.
func runURL(base, id, priority string, noCache bool) string {
	v := url.Values{}
	if expIDPattern.MatchString(id) {
		v.Set("experiment", id)
	} else {
		v.Set("scenario", id)
	}
	if priority != "" {
		v.Set("priority", priority)
	}
	if noCache {
		v.Set("no_cache", "true")
	}
	return strings.TrimSuffix(base, "/") + "/run?" + v.Encode()
}

// batchBody builds the POST /runbatch body for a slice of workload ids.
func batchBody(ids []string, priority string, noCache bool) []byte {
	type req struct {
		Experiment string `json:"experiment,omitempty"`
		Scenario   string `json:"scenario,omitempty"`
		Priority   string `json:"priority,omitempty"`
		NoCache    bool   `json:"no_cache,omitempty"`
	}
	var body struct {
		Requests []req `json:"requests"`
	}
	for _, id := range ids {
		r := req{Priority: priority, NoCache: noCache}
		if expIDPattern.MatchString(id) {
			r.Experiment = id
		} else {
			r.Scenario = id
		}
		body.Requests = append(body.Requests, r)
	}
	blob, _ := json.Marshal(body)
	return blob
}

// sample is one completed request.
type sample struct {
	ok        bool
	shed      bool
	cacheHit  bool
	latencyMS float64
	retries   int
	// stages is the server-reported per-stage latency breakdown for
	// this request (milliseconds), keyed by stage name.
	stages map[string]float64
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
				Cache  string             `json:"cache"`
				Stages map[string]float64 `json:"stages"`
			}
			if json.Unmarshal(body, &rr) != nil {
				return s
			}
			s.ok = true
			s.cacheHit = rr.Cache == "hit" || rr.Cache == "coalesced"
			s.stages = rr.Stages
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

// issueBatch POSTs one /runbatch call for ids and classifies every item.
// Each item's latency is the whole call's wall time: that is what the
// client actually waited for each answer in a batched workload.
func issueBatch(client *http.Client, base string, ids []string, priority string, noCache bool) []sample {
	start := time.Now()
	out := make([]sample, len(ids))
	resp, err := client.Post(strings.TrimSuffix(base, "/")+"/runbatch",
		"application/json", strings.NewReader(string(batchBody(ids, priority, noCache))))
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	lat := float64(time.Since(start).Microseconds()) / 1000
	for i := range out {
		out[i].latencyMS = lat
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		return out
	}
	var br struct {
		Results []struct {
			Cache string `json:"cache"`
			Code  int    `json:"code"`
		} `json:"results"`
	}
	if json.Unmarshal(body, &br) != nil || len(br.Results) != len(ids) {
		return out
	}
	for i, it := range br.Results {
		switch it.Code {
		case http.StatusOK:
			out[i].ok = true
			out[i].cacheHit = it.Cache == "hit" || it.Cache == "coalesced"
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			out[i].shed = true
		}
	}
	return out
}

// levelOptions carry the per-request workload shape through a sweep.
type levelOptions struct {
	priority string
	noCache  bool // force execution: a cache-miss-heavy sweep
	batch    int  // >1: group requests into /runbatch calls of this size
	retries  int  // retry shed /run requests this many times
	maxSleep time.Duration
	// trace tags each /run request with a unique X-PN-Trace-Id. Note
	// that a client-supplied trace ID arms the server's detailed
	// per-write instrumentation for that request.
	trace bool
}

// runLevel drives one closed-loop level: c workers, n requests total,
// round-robin over ids. With opts.batch > 1 each worker claims up to
// batch consecutive request slots and issues them as one /runbatch
// call.
func runLevel(client *http.Client, base string, ids []string, opts levelOptions, c, n int) levelReport {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples = make([]sample, 0, n)
		wg      sync.WaitGroup
	)
	k := opts.batch
	if k < 1 {
		k = 1
	}
	start := time.Now()
	wg.Add(c)
	for w := 0; w < c; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := next.Add(int64(k)) - int64(k) // first claimed slot, 0-based
				if lo >= int64(n) {
					return
				}
				hi := lo + int64(k)
				if hi > int64(n) {
					hi = int64(n)
				}
				var got []sample
				if k == 1 {
					traceID := ""
					if opts.trace {
						traceID = fmt.Sprintf("load-c%d-s%d", c, lo)
					}
					got = []sample{issue(client, runURL(base, ids[int(lo)%len(ids)], opts.priority, opts.noCache), traceID, opts.retries, opts.maxSleep)}
				} else {
					claimed := make([]string, 0, hi-lo)
					for i := lo; i < hi; i++ {
						claimed = append(claimed, ids[int(i)%len(ids)])
					}
					got = issueBatch(client, base, claimed, opts.priority, opts.noCache)
				}
				mu.Lock()
				samples = append(samples, got...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	rep := levelReport{Concurrency: c, Requests: n, WallMS: float64(wall.Microseconds()) / 1000}
	lats := make([]float64, 0, n)
	for _, s := range samples {
		switch {
		case s.ok:
			rep.OK++
			if s.cacheHit {
				rep.CacheHits++
			}
			lats = append(lats, s.latencyMS)
		case s.shed:
			rep.Shed++
		default:
			rep.Errors++
		}
		rep.Retries += s.retries
	}
	if rep.OK > 0 {
		rep.CacheHitRate = round4(float64(rep.CacheHits) / float64(rep.OK))
		rep.ThroughputRPS = round4(float64(rep.OK) / wall.Seconds())
	}
	if n > 0 {
		rep.ShedRate = round4(float64(rep.Shed) / float64(n))
	}
	rep.Latency = summarize(lats)
	stageLats := make(map[string][]float64)
	for _, s := range samples {
		if !s.ok {
			continue
		}
		for name, ms := range s.stages {
			stageLats[name] = append(stageLats[name], ms)
		}
	}
	if len(stageLats) > 0 {
		rep.Stages = make(map[string]latencyStats, len(stageLats))
		for name, ls := range stageLats {
			rep.Stages[name] = summarize(ls)
		}
	}
	return rep
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

func parseIDs(s string) ([]string, error) {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no workload ids")
	}
	return out, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pnload", flag.ContinueOnError)
	base := fs.String("url", "", "pnserve base URL (e.g. http://127.0.0.1:8099)")
	idsFlag := fs.String("ids", "E1,E3,E9", "comma list of workload ids (E<n> = experiment, otherwise scenario)")
	levelsFlag := fs.String("levels", "1,2,4,8", "comma list of concurrency levels to sweep")
	requests := fs.Int("requests", 64, "requests per level")
	priority := fs.String("priority", "", "priority lane for every request (high, normal, low)")
	outFile := fs.String("out", "BENCH_SERVE.json", "artifact path ('-' = stdout only)")
	noCache := fs.Bool("no-cache", false, "set no_cache on every request: a cache-miss-heavy sweep that measures the execution (and template-pool) path")
	batch := fs.Int("batch", 0, "group requests into POST /runbatch calls of this size (0/1 = individual /run calls)")
	warm := fs.Bool("warm", true, "issue each id once before the sweep so the repeated-ID workload measures the cache")
	minHitRate := fs.Float64("min-hit-rate", -1, "fail unless the overall cache hit rate reaches this (negative = no check)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	trace := fs.Bool("trace", true, "tag each /run request with a unique X-PN-Trace-Id and harvest the per-stage latency breakdown")
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
	tenants := fs.Bool("tenants", false, "run the deterministic multi-tenant admission soak instead of an HTTP sweep (no -url needed)")
	seed := fs.Int64("seed", 42, "tenant-soak PRNG seed; equal seeds produce byte-identical reports")
	soakDuration := fs.Duration("soak-duration", 10*time.Second, "simulated tenant-soak duration")
	tenantOut := fs.String("tenant-out", "BENCH_TENANT.json", "tenant-soak artifact path ('-' = stdout only)")
	minFairShare := fs.Float64("min-fair-share", 0.8, "fail unless the well-behaved tenant completes at least this fraction of its offered load")
	maxStarvation := fs.Float64("max-starvation", 0, "fail when the low-priority starvation ratio exceeds this")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tenants {
		return runTenantSoak(out, *seed, *soakDuration, *tenantOut, *minFairShare, *maxStarvation)
	}
	if *clusterMode {
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
	if *base == "" {
		return fmt.Errorf("missing -url")
	}
	ids, err := parseIDs(*idsFlag)
	if err != nil {
		return err
	}
	levels, err := parseLevels(*levelsFlag)
	if err != nil {
		return err
	}

	client := &http.Client{Timeout: *timeout}
	rep := benchServe{Schema: Schema, URL: *base, IDs: ids, RequestsPerLevel: *requests, Warmed: *warm,
		NoCache: *noCache, Batch: *batch}

	if *warm {
		for _, id := range ids {
			if s := issue(client, runURL(*base, id, *priority, false), "", *retries, *retryMaxSleep); !s.ok {
				return fmt.Errorf("warmup request for %s failed (server down or id invalid)", id)
			}
		}
	}

	opts := levelOptions{priority: *priority, noCache: *noCache, batch: *batch,
		retries: *retries, maxSleep: *retryMaxSleep, trace: *trace}
	for _, c := range levels {
		lr := runLevel(client, *base, ids, opts, c, *requests)
		rep.Levels = append(rep.Levels, lr)
		rep.Totals.Requests += lr.Requests
		rep.Totals.OK += lr.OK
		rep.Totals.Shed += lr.Shed
		rep.Totals.Errors += lr.Errors
		rep.Totals.Retries += lr.Retries
		rep.Totals.CacheHits += lr.CacheHits
		fmt.Fprintf(out, "c=%-3d ok=%d shed=%d err=%d hit=%.2f rps=%.1f p50=%.2fms p95=%.2fms p99=%.2fms\n",
			c, lr.OK, lr.Shed, lr.Errors, lr.CacheHitRate, lr.ThroughputRPS,
			lr.Latency.P50, lr.Latency.P95, lr.Latency.P99)
		if qw, ok := lr.Stages["queue_wait"]; ok {
			ex := lr.Stages["execute"]
			fmt.Fprintf(out, "      queue_wait p99=%.2fms execute p99=%.2fms\n", qw.P99, ex.P99)
		}
	}
	if rep.Totals.OK > 0 {
		rep.Totals.CacheHitRate = round4(float64(rep.Totals.CacheHits) / float64(rep.Totals.OK))
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *outFile != "-" {
		if err := os.WriteFile(*outFile, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *outFile)
	} else {
		out.Write(blob)
	}

	if rep.Totals.Errors > 0 {
		return fmt.Errorf("%d requests failed for non-shedding reasons", rep.Totals.Errors)
	}
	if *minHitRate >= 0 && rep.Totals.CacheHitRate < *minHitRate {
		return fmt.Errorf("cache hit rate %.4f below required %.4f", rep.Totals.CacheHitRate, *minHitRate)
	}
	return nil
}

// runTenantSoak executes the deterministic three-tenant adversarial
// soak in-process (no server: the simulation drives the exact same
// admission components pnserve uses) and enforces the fairness gates
// the issue specifies. Equal seeds produce byte-identical artifacts,
// which is what lets CI diff two runs with cmp.
func runTenantSoak(out io.Writer, seed int64, duration time.Duration, outFile string, minFairShare, maxStarvation float64) error {
	cfg := service.DefaultSoakConfig(seed)
	if duration > 0 {
		cfg.Duration = duration
	}
	rep := service.RunTenantSoak(cfg)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if outFile != "-" {
		if err := os.WriteFile(outFile, blob, 0o644); err != nil {
			return err
		}
	} else {
		out.Write(blob)
	}

	for _, ts := range rep.Tenants {
		shed := 0
		for _, n := range ts.Shed {
			shed += n
		}
		fmt.Fprintf(out, "tenant=%-12s offered=%-5d completed=%-5d shed=%-5d fair_share=%.3f goodput=%.1frps p99=%.2fms\n",
			ts.Name, ts.Offered, ts.Completed, shed, ts.FairShare, ts.GoodputRPS, ts.P99MS)
	}
	fmt.Fprintf(out, "aged_promotions=%d starvation_ratio=%.3f breaker_opens=%d\n",
		rep.AgedPromotions, rep.StarvationRatio, rep.BreakerOpens)
	if outFile != "-" {
		fmt.Fprintf(out, "wrote %s\n", outFile)
	}

	well, err := rep.TenantByName("wellbehaved")
	if err != nil {
		return err
	}
	if well.FairShare < minFairShare {
		return fmt.Errorf("well-behaved fair share %.4f below required %.4f", well.FairShare, minFairShare)
	}
	if rep.StarvationRatio > maxStarvation {
		return fmt.Errorf("starvation ratio %.4f exceeds allowed %.4f (%d of %d low-priority requests starved)",
			rep.StarvationRatio, maxStarvation, rep.LowStarved, rep.LowAdmitted)
	}
	greedy, err := rep.TenantByName("greedy")
	if err != nil {
		return err
	}
	if greedy.Shed[service.ReasonQuota] == 0 {
		return fmt.Errorf("greedy tenant was never rate-limited; quotas are not biting")
	}
	return nil
}
