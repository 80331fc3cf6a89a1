package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/service"
)

// ClusterSchema is the BENCH_CLUSTER.json schema tag.
const ClusterSchema = "pnserve-cluster/v1"

// clusterOpts shapes a cluster sweep.
type clusterOpts struct {
	url         string // external router ("" = in-process fleets)
	nodes       []int  // worker counts to sweep (in-process mode)
	keys        int    // distinct cache keys in the workload
	repeatBase  int    // smallest per-request measurement-loop count
	requests    int    // requests per phase
	concurrency int    // fixed client concurrency
	ringSeed    uint64
	retries     int
	maxSleep    time.Duration
	minScaling  float64 // gate: miss-phase rps(max nodes)/rps(1 node)
	outFile     string
}

// clusterNodeReport is one topology's two measurement phases: miss
// (every key cold — the execution-bound scaling phase) and hit (the
// same keys again — the routing-plus-cache phase).
type clusterNodeReport struct {
	Workers int         `json:"workers"`
	Miss    levelReport `json:"miss"`
	Hit     levelReport `json:"hit"`
}

// clusterScaling is the headline number: how much miss-phase
// throughput grew from the smallest to the largest topology.
type clusterScaling struct {
	BaselineWorkers int     `json:"baseline_workers"`
	MaxWorkers      int     `json:"max_workers"`
	BaselineRPS     float64 `json:"baseline_rps"`
	MaxRPS          float64 `json:"max_rps"`
	ThroughputRatio float64 `json:"throughput_ratio"`
}

// benchCluster is the whole BENCH_CLUSTER.json artifact.
type benchCluster struct {
	Schema      string              `json:"schema"`
	Mode        string              `json:"mode"` // "in-process" or "external"
	URL         string              `json:"url,omitempty"`
	Keys        int                 `json:"keys"`
	RepeatBase  int                 `json:"repeat_base"`
	Requests    int                 `json:"requests_per_phase"`
	Concurrency int                 `json:"concurrency"`
	RingSeed    uint64              `json:"ring_seed"`
	Nodes       []clusterNodeReport `json:"nodes"`
	Scaling     *clusterScaling     `json:"scaling,omitempty"`
}

// clusterURLs builds the workload: keys distinct content addresses
// with honest execution weight. The repeat measurement loop serves
// both ends — repeat > 1 is part of the cache key (so the ring spreads
// the keys across shards) and multiplies the per-request compute (so
// the miss phase measures execution scaling, not HTTP overhead).
func clusterURLs(base string, o clusterOpts) []string {
	urls := make([]string, o.keys)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/run?scenario=stack-ret&repeat=%d",
			strings.TrimSuffix(base, "/"), o.repeatBase+i)
	}
	return urls
}

// runClusterPhase drives one closed-loop phase: c workers keep
// requests in flight round-robin over urls until n complete.
func runClusterPhase(client *http.Client, urls []string, o clusterOpts, tracePrefix string) levelReport {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples = make([]sample, 0, o.requests)
		wg      sync.WaitGroup
	)
	start := time.Now()
	wg.Add(o.concurrency)
	for w := 0; w < o.concurrency; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(o.requests) {
					return
				}
				traceID := fmt.Sprintf("%s-%d", tracePrefix, i)
				s := issue(client, urls[int(i)%len(urls)], traceID, o.retries, o.maxSleep)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	rep := levelReport{Concurrency: o.concurrency, Requests: o.requests,
		WallMS: float64(wall.Microseconds()) / 1000}
	lats := make([]float64, 0, o.requests)
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
	if o.requests > 0 {
		rep.ShedRate = round4(float64(rep.Shed) / float64(o.requests))
	}
	rep.Latency = summarize(lats)
	return rep
}

// sweepTopology measures one router URL: a cold miss phase over the
// key set, then a hit phase over the same keys.
func sweepTopology(client *http.Client, base string, workers int, o clusterOpts) clusterNodeReport {
	urls := clusterURLs(base, o)
	return clusterNodeReport{
		Workers: workers,
		Miss:    runClusterPhase(client, urls, o, fmt.Sprintf("cl-%d-miss", workers)),
		Hit:     runClusterPhase(client, urls, o, fmt.Sprintf("cl-%d-hit", workers)),
	}
}

// externalWorkers asks the router how many healthy workers are on its
// ring.
func externalWorkers(client *http.Client, base string) (int, error) {
	resp, err := client.Get(strings.TrimSuffix(base, "/") + "/cluster/members")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Ring struct {
			Nodes []string `json:"nodes"`
		} `json:"ring"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		return 0, err
	}
	return len(body.Ring.Nodes), nil
}

// runClusterSweep executes the cluster benchmark and writes
// BENCH_CLUSTER.json. With -url it measures the external router it is
// given (one topology — the CI smoke path, where workers are separate
// processes and one is killed mid-sweep). Without -url it builds an
// in-process fleet per node count — each worker a real serve.Server
// with a single-threaded execution pool behind a real listener, so
// miss-phase throughput scales with worker count and the scaling gate
// has meaning.
func runClusterSweep(out io.Writer, o clusterOpts, timeout time.Duration) error {
	if o.repeatBase < 2 {
		return fmt.Errorf("-cluster-repeat %d: want >= 2 (repeat 1 is normalized out of the cache key)", o.repeatBase)
	}
	if max := o.repeatBase + o.keys - 1; max > service.MaxRepeat {
		return fmt.Errorf("-cluster-keys %d with -cluster-repeat %d needs repeat up to %d, over the server cap %d",
			o.keys, o.repeatBase, max, service.MaxRepeat)
	}
	client := &http.Client{Timeout: timeout}
	rep := benchCluster{Schema: ClusterSchema, Keys: o.keys, RepeatBase: o.repeatBase,
		Requests: o.requests, Concurrency: o.concurrency, RingSeed: o.ringSeed}

	if o.url != "" {
		rep.Mode, rep.URL = "external", o.url
		workers, err := externalWorkers(client, o.url)
		if err != nil {
			return fmt.Errorf("cluster members from %s: %w", o.url, err)
		}
		rep.Nodes = append(rep.Nodes, sweepTopology(client, o.url, workers, o))
	} else {
		rep.Mode = "in-process"
		for _, n := range o.nodes {
			// One execution slot per worker: the pool, not the client or the
			// router, is the bottleneck, so adding workers adds capacity.
			f := cluster.NewFleet(n, serve.Config{
				Workers: 1, Queue: o.requests + o.concurrency,
				CacheSize: 4 * o.keys, Deadline: timeout, MaxDeadline: timeout,
			}, cluster.RouterConfig{Seed: o.ringSeed})
			rep.Nodes = append(rep.Nodes, sweepTopology(client, f.URL(), n, o))
			f.Close()
		}
	}

	for _, nr := range rep.Nodes {
		fmt.Fprintf(out, "workers=%-2d miss: ok=%d err=%d rps=%.1f p50=%.2fms p99=%.2fms | hit: rps=%.1f hit_rate=%.2f\n",
			nr.Workers, nr.Miss.OK, nr.Miss.Errors, nr.Miss.ThroughputRPS,
			nr.Miss.Latency.P50, nr.Miss.Latency.P99, nr.Hit.ThroughputRPS, nr.Hit.CacheHitRate)
	}
	if len(rep.Nodes) > 1 {
		base, max := rep.Nodes[0], rep.Nodes[len(rep.Nodes)-1]
		sc := &clusterScaling{
			BaselineWorkers: base.Workers, MaxWorkers: max.Workers,
			BaselineRPS: base.Miss.ThroughputRPS, MaxRPS: max.Miss.ThroughputRPS,
		}
		if sc.BaselineRPS > 0 {
			sc.ThroughputRatio = round4(sc.MaxRPS / sc.BaselineRPS)
		}
		rep.Scaling = sc
		fmt.Fprintf(out, "scaling %d->%d workers: %.2fx\n",
			sc.BaselineWorkers, sc.MaxWorkers, sc.ThroughputRatio)
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if o.outFile != "-" {
		if err := os.WriteFile(o.outFile, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", o.outFile)
	} else {
		out.Write(blob)
	}

	errors := 0
	for _, nr := range rep.Nodes {
		errors += nr.Miss.Errors + nr.Hit.Errors
	}
	if errors > 0 {
		return fmt.Errorf("%d cluster requests failed for non-shedding reasons", errors)
	}
	if o.minScaling > 0 {
		if rep.Scaling == nil {
			return fmt.Errorf("-min-scaling needs at least two node counts")
		}
		if rep.Scaling.ThroughputRatio < o.minScaling {
			return fmt.Errorf("throughput scaling %.2fx (%d->%d workers) below required %.2fx",
				rep.Scaling.ThroughputRatio, rep.Scaling.BaselineWorkers,
				rep.Scaling.MaxWorkers, o.minScaling)
		}
	}
	return nil
}
