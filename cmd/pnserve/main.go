// Command pnserve serves the experiment/attack corpus over HTTP. It
// runs in one of three modes:
//
//	pnserve              standalone server: the full endpoint set with
//	                     local admission control (the single-node
//	                     deployment and every pre-cluster behaviour)
//	pnserve -worker      a fleet worker: identical, plus it trusts the
//	                     router hop headers (X-PN-Admitted skips the
//	                     local quota, X-PN-Fill-From arms cross-node
//	                     cache fill) and, with -join, push-heartbeats
//	                     the router so it is admitted to the ring
//	pnserve -router      the cluster front end: no local execution —
//	                     admission (tenant quotas) runs here and
//	                     requests forward to the
//	                     consistent-hash ring owner of their
//	                     content-addressed cache key; -workers lists
//	                     the initial backends
//
// Endpoints (standalone and worker; the router serves the same set,
// forwarding /run and /runbatch and fanning in /watch):
//
//	POST /run          JSON service.Request body
//	POST /runbatch     {"requests":[...]} — up to 64 service.Request
//	                   objects admitted in one call, executed
//	                   concurrently with one shared template-pool
//	                   lookup; per-item status codes in the response
//	GET  /run          the same request as query parameters, e.g.
//	                   /run?experiment=E8
//	                   /run?scenario=bss-overflow&defense=stackguard&model=LP64
//	                   /run?scenario=stack-ret&chaos_prob=0.01&seed=7
//	GET  /experiments  the servable catalogue (experiments, scenarios,
//	                   defenses, models) as JSON
//	GET  /healthz      liveness: always 200 while the process runs (the
//	                   status field reads "draining" during shutdown)
//	GET  /readyz       readiness: 503 while draining (on a router,
//	                   also with no healthy worker); the JSON body
//	                   carries {"status", "draining":bool,
//	                   "uptime_ms"} so a router can tell a draining
//	                   worker from any other refusal
//	GET  /metrics      Prometheus text exposition (pn_serve_* — plus
//	                   pn_cluster_* on a router)
//	GET  /watch        live event stream (SSE; Accept:
//	                   application/x-ndjson for raw NDJSON); filters
//	                   ?trace=, ?tenant=, ?kind=a,b; resumable via
//	                   Last-Event-ID. On a router, the fan-in of every
//	                   worker's stream. See docs/observability.md.
//	GET  /trace/{id}   finished per-request span tree; on a router the
//	                   worker's stages are grafted under the router's
//	                   forward span. See docs/cluster.md.
//	GET  /cache/{key}  peek at the local result cache by content
//	                   address (the cross-node cache-fill donor path)
//
// Router-only endpoints:
//
//	GET  /cluster/members  membership table and current ring
//	POST /cluster/join     worker push heartbeat {"id":"http://..."}
//
// Multi-tenant admission control: the X-PN-Tenant request header
// selects the tenant (default "default"); per-(tenant, scenario-class)
// circuit breakers (-breaker-threshold/-breaker-cooldown), per-tenant
// token-bucket quotas (-tenant-rate/-tenant-burst), and round-robin
// fair queueing with priority aging (-aging) shed overload with
// structured 429/503 responses. In a cluster, quotas enforce at the
// router only; workers behind it skip theirs (never double-counted)
// while keeping their worker-local breakers.
//
// Every mode bounds a stalled client: request headers must arrive
// within 10s and the whole request, body included, within a minute; an
// idle keep-alive connection closes after two. Responses have no write
// deadline, so /watch streams stay open.
//
// On SIGTERM/SIGINT every mode drains gracefully: admission stops
// (503 + failing readiness), in-flight and queued work completes, then
// the listener shuts down. A router notices a draining worker on its
// next probe or forward, ejects it from the ring, and re-routes its
// shard — cloning the drained worker's warm cache entries via
// /cache/{key} instead of recomputing them.
//
// Usage:
//
//	pnserve [-addr :8099] [-workers 8] [-queue 64]
//	        [-cache-size 512]
//	        [-deadline 15s] [-max-deadline 60s] [-drain-timeout 10s]
//	        [-tenant-rate 200] [-tenant-burst 400] [-aging 1s]
//	        [-breaker-threshold 5] [-breaker-cooldown 2s]
//	        [-trace-cap 256] [-deterministic] [-compiled]
//	pnserve -worker [-advertise http://host:port] [-join http://router]
//	        [...the same serving flags]
//	pnserve -router -workers=http://w1:8099,http://w2:8099
//	        [-ring-seed 1] [-vnodes 64] [-heartbeat 500ms]
//	        [-fail-threshold 2] [-forward-timeout 30s]
//	        [-forward-retries 2] [-tenant-rate 200] [-tenant-burst 400]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pnserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pnserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8099", "listen address")
	// -workers is mode-overloaded: a pool size when serving, a
	// comma-separated backend URL list under -router.
	workers := fs.String("workers", "8", "worker pool size; under -router, comma-separated worker base URLs")
	queue := fs.Int("queue", 64, "admission queue depth per priority lane")
	cacheSize := fs.Int("cache-size", 512, "result cache capacity (entries)")
	deadline := fs.Duration("deadline", 15*time.Second, "default per-request deadline (queueing included)")
	maxDeadline := fs.Duration("max-deadline", time.Minute, "cap on client-supplied deadlines")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget after SIGTERM")
	tenantRate := fs.Float64("tenant-rate", 200, "per-tenant sustained admission rate in req/s (0 disables quotas)")
	tenantBurst := fs.Float64("tenant-burst", 400, "per-tenant burst allowance (0 = 2x rate)")
	aging := fs.Duration("aging", time.Second, "queue wait at which any request outranks strict priority (negative disables)")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive execution deaths that open a (tenant, class) breaker (0 disables)")
	breakerCooldown := fs.Duration("breaker-cooldown", 2*time.Second, "open-breaker fast-fail window before a half-open probe")
	traceCap := fs.Int("trace-cap", service.DefaultTraceCapacity, "finished traces retained for GET /trace/{id}")
	deterministic := fs.Bool("deterministic", false,
		"run on a virtual clock: durations become logical ticks and the /watch stream of a sequential request sequence is byte-identical across runs")
	compiled := fs.Bool("compiled", false,
		"arm the compiled-program tier: chaos-free, untraced scenario executions replay cached straight-line programs instead of interpreting")
	// Cluster modes.
	router := fs.Bool("router", false, "run as the cluster front end, forwarding to -workers")
	worker := fs.Bool("worker", false, "run as a fleet worker: trust router hop headers, optionally -join the router")
	advertise := fs.String("advertise", "", "worker: the base URL to join the ring as (default http://127.0.0.1{addr})")
	join := fs.String("join", "", "worker: router base URL to push heartbeats to")
	ringSeed := fs.Uint64("ring-seed", 1, "router: consistent-hash placement seed (same seed => same placement)")
	vnodes := fs.Int("vnodes", cluster.DefaultVNodes, "router: virtual nodes per worker on the ring")
	heartbeat := fs.Duration("heartbeat", 500*time.Millisecond, "router: membership probe interval; worker: push-heartbeat interval")
	failThreshold := fs.Int("fail-threshold", 2, "router: consecutive missed probes that eject a worker")
	forwardTimeout := fs.Duration("forward-timeout", 30*time.Second, "router: per-forward timeout")
	forwardRetries := fs.Int("forward-retries", 2, "router: extra forward attempts after a failed or draining worker")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *router && *worker {
		return fmt.Errorf("-router and -worker are mutually exclusive")
	}

	if *router {
		return runRouter(routerArgs{
			addr: *addr, workers: *workers, drainTimeout: *drainTimeout,
			seed: *ringSeed, vnodes: *vnodes, heartbeat: *heartbeat,
			failThreshold: *failThreshold, forwardTimeout: *forwardTimeout,
			forwardRetries: *forwardRetries,
			tenantRate:     *tenantRate, tenantBurst: *tenantBurst,
		}, out)
	}

	poolSize, err := strconv.Atoi(*workers)
	if err != nil || poolSize <= 0 {
		return fmt.Errorf("invalid -workers %q: want a positive pool size (URL lists are for -router)", *workers)
	}
	srv := serve.NewServer(serve.Config{
		Workers: poolSize, Queue: *queue,
		CacheSize: *cacheSize, Deadline: *deadline, MaxDeadline: *maxDeadline,
		TenantRate: *tenantRate, TenantBurst: *tenantBurst, Aging: *aging,
		BreakerThreshold: *breakerThreshold, BreakerCooldown: *breakerCooldown,
		TraceCap: *traceCap, Deterministic: *deterministic,
		TrustAdmitted: *worker, Compiled: *compiled,
	})
	httpSrv := newHTTPServer(*addr, srv.Handler())

	stopJoin := func() {}
	if *worker && *join != "" {
		self := *advertise
		if self == "" {
			self = "http://127.0.0.1" + *addr
		}
		stopJoin = startJoinLoop(*join, self, *heartbeat, out)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	errCh := make(chan error, 1)
	go func() {
		role := "standalone"
		if *worker {
			role = "worker"
		}
		fmt.Fprintf(out, "pnserve: %s listening on %s (%d workers, queue %d/lane, cache %d entries, tenant quota %g/%g)\n",
			role, *addr, poolSize, *queue, *cacheSize, *tenantRate, *tenantBurst)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		stopJoin()
		return err
	case sig := <-sigCh:
		fmt.Fprintf(out, "pnserve: %s received, draining\n", sig)
		stopJoin()
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		fmt.Fprintln(out, "pnserve: drained cleanly")
		return nil
	}
}

// Connection timeouts of every pnserve listener.
const (
	// readHeaderTimeout bounds the wait for a request's headers.
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds the whole request read, body included. A
	// minute admits the 8 MiB /analyze body limit at ~140 KB/s.
	readTimeout = time.Minute
	// idleTimeout closes an idle keep-alive connection. It is longer
	// than net/http's client-side default of 90s, so the router's
	// client closes an idle hop to a worker before the worker does.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer builds the http.Server for one pnserve mode. A client
// that stops sending mid-request is dropped when its read deadline
// passes. There is deliberately no WriteTimeout: net/http would cancel
// a streaming handler's context at that deadline and cut every /watch
// stream. The read deadline is cleared once a request's body has been
// read, so a long-lived response is unaffected by readTimeout.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

type routerArgs struct {
	addr           string
	workers        string
	drainTimeout   time.Duration
	seed           uint64
	vnodes         int
	heartbeat      time.Duration
	failThreshold  int
	forwardTimeout time.Duration
	forwardRetries int
	tenantRate     float64
	tenantBurst    float64
}

func runRouter(a routerArgs, out io.Writer) error {
	var backends []string
	for _, w := range strings.Split(a.workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			if !strings.Contains(w, "://") {
				return fmt.Errorf("-router -workers wants base URLs, got %q", w)
			}
			backends = append(backends, strings.TrimRight(w, "/"))
		}
	}
	rt := cluster.NewRouter(cluster.RouterConfig{
		Workers: backends, Seed: a.seed, VNodes: a.vnodes,
		HeartbeatInterval: a.heartbeat, FailThreshold: a.failThreshold,
		ForwardTimeout: a.forwardTimeout, ForwardRetries: a.forwardRetries,
		TenantRate: a.tenantRate, TenantBurst: a.tenantBurst,
	})
	rt.StartHeartbeat()
	defer rt.Close()
	httpSrv := newHTTPServer(a.addr, rt.Handler())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(out, "pnserve: router listening on %s (%d workers, seed %d, %d vnodes)\n",
			a.addr, len(backends), a.seed, a.vnodes)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(out, "pnserve: router %s received, draining\n", sig)
		rt.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), a.drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		fmt.Fprintln(out, "pnserve: router drained cleanly")
		return nil
	}
}

// startJoinLoop push-heartbeats POST /cluster/join so the router
// admits this worker (and re-admits it quickly after a partition).
// Returns a stop function.
func startJoinLoop(routerURL, self string, interval time.Duration, out io.Writer) func() {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	body := []byte(fmt.Sprintf("{\"id\":%q}", self))
	client := &http.Client{Timeout: 2 * time.Second}
	stop := make(chan struct{})
	joined := false
	post := func() {
		resp, err := client.Post(strings.TrimRight(routerURL, "/")+"/cluster/join",
			"application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if !joined && resp.StatusCode == http.StatusOK {
			joined = true
			fmt.Fprintf(out, "pnserve: joined %s as %s\n", routerURL, self)
		}
	}
	go func() {
		post()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				post()
			}
		}
	}()
	return func() { close(stop) }
}
