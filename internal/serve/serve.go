// Package serve is the HTTP face of one internal/service instance: the
// endpoint set cmd/pnserve exposes (/run, /runbatch, /experiments,
// /healthz, /readyz, /metrics, /watch, /trace/{id}, /cache/{key}) as a
// reusable library. cmd/pnserve wraps it in a process; internal/cluster
// embeds it to run a fleet of in-process workers behind the
// consistent-hash router, so cluster tests and the pnload cluster
// sweep exercise the exact handlers production traffic hits.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// Hop and identity headers of the serving tier.
const (
	// TenantHeader selects the admission-control tenant. The body cannot
	// set it (Request.Tenant is excluded from JSON), so quota identity is
	// a transport-level property, like authentication would be.
	TenantHeader = "X-PN-Tenant"
	// TraceHeader carries the client's trace identity. Honoured on /run
	// (and echoed back); a client-supplied ID also arms detailed
	// per-write instrumentation for that request. The cluster router
	// relays it so GET /trace/{id} works end-to-end across the hop.
	TraceHeader = "X-PN-Trace-Id"
	// AdmittedHeader marks a request already admitted by the cluster
	// router's quota. Honoured only under Config.TrustAdmitted (worker
	// mode behind a router); the worker then skips its own quota so
	// fleet accounting never double-counts.
	AdmittedHeader = "X-PN-Admitted"
	// FillFromHeader carries the base URL of the peer that owned this
	// request's cache key before a ring rebalance. Honoured only under
	// Config.TrustAdmitted: on a miss the worker clones the peer's cached
	// result (GET {peer}/cache/{key}) instead of recomputing.
	FillFromHeader = "X-PN-Fill-From"
)

// Config assembles a Server. The zero value is not useful; cmd/pnserve
// and the cluster fleet fill it from flags.
type Config struct {
	Workers     int
	Queue       int
	CacheSize   int
	Deadline    time.Duration
	MaxDeadline time.Duration
	// Admission-control knobs.
	TenantRate       float64
	TenantBurst      float64
	Aging            time.Duration
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Observability knobs.
	TraceCap      int
	Deterministic bool
	// TrustAdmitted arms the router hop headers (AdmittedHeader,
	// FillFromHeader). Only workers that sit behind a cluster router set
	// it: a front-door server must ignore those headers, or any client
	// could skip admission control.
	TrustAdmitted bool
	// PeerFetch overrides the cross-node cache-fill transport (tests).
	// Nil selects the HTTP client fetching GET {peer}/cache/{key}.
	PeerFetch func(ctx context.Context, peerURL, key string) (*service.Result, error)
	// Compiled arms the compiled-program tier: cache-miss scenario
	// executions (no chaos, no detail tracing) replay cached
	// straight-line programs instead of interpreting (see
	// internal/compile).
	Compiled bool
}

// Server is the HTTP face of one service.Service.
type Server struct {
	cfg      Config
	svc      *service.Service
	reg      *obs.Registry
	draining atomic.Bool
	now      func() time.Time
	started  time.Time // on the now clock, for the uptime metric
	// wallStart is the wall-clock start /healthz and /readyz report
	// uptime from. They never read the now clock: under Deterministic it
	// is virtual (it starts at the epoch), and each read advances it, so
	// readiness polls would perturb the /watch stream.
	wallStart time.Time
}

// NewServer builds a Server and starts its worker pool.
func NewServer(cfg Config) *Server {
	reg := obs.NewRegistry()
	now := time.Now
	if cfg.Deterministic {
		// The virtual clock makes every duration a count of clock reads:
		// synthetic, but byte-identical across double runs of the same
		// sequential request sequence — the /watch determinism gate.
		now = service.NewVirtualClock().Now
	}
	bus := obs.NewBus(0)
	bus.OnSubscribers = func(n int) { reg.Set(obs.MetricWatchSubscribers, float64(n)) }
	bus.OnDrop = func(n uint64) { reg.Add(obs.MetricWatchDropped, float64(n)) }
	describeServerMetrics(reg)
	peerFetch := cfg.PeerFetch
	if peerFetch == nil {
		peerFetch = HTTPPeerFetch(nil)
	}
	s := &Server{
		cfg: cfg,
		svc: service.New(service.Config{
			Workers:         cfg.Workers,
			QueueDepth:      cfg.Queue,
			CacheCapacity:   cfg.CacheSize,
			DefaultDeadline: cfg.Deadline,
			MaxDeadline:     cfg.MaxDeadline,
			Quota:           service.QuotaConfig{Rate: cfg.TenantRate, Burst: cfg.TenantBurst},
			Breaker:         service.BreakerConfig{Threshold: cfg.BreakerThreshold, Cooldown: cfg.BreakerCooldown},
			AgingThreshold:  cfg.Aging,
			Now:             now,
			Registry:        reg,
			Bus:             bus,
			TraceCapacity:   cfg.TraceCap,
			PeerFetch:       peerFetch,
			Compiled:        cfg.Compiled,
		}),
		reg:       reg,
		now:       now,
		wallStart: time.Now(),
	}
	s.started = s.now()
	reg.Set(obs.MetricBuildInfo, 1,
		obs.L("version", service.CodeVersion),
		obs.L("go_version", runtime.Version()),
		obs.L("commit", buildCommit()))
	return s
}

// describeServerMetrics declares the process-level families the HTTP
// layer owns (the service describes the serving ones).
func describeServerMetrics(reg *obs.Registry) {
	reg.Describe(obs.MetricBuildInfo, "build identity: constant 1 with version labels", obs.TypeGauge)
	reg.Describe(obs.MetricServeUptime, "seconds since the server started", obs.TypeGauge)
	reg.Describe(obs.MetricWatchSubscribers, "attached /watch subscribers", obs.TypeGauge)
	reg.Describe(obs.MetricWatchDropped, "events dropped on slow /watch subscribers", obs.TypeCounter)
}

// buildCommit extracts the VCS revision stamped into the binary, or
// "unknown" (test binaries, go run).
func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// Service exposes the underlying service (drain, cache, traces).
func (s *Server) Service() *service.Service { return s.svc }

// Registry exposes the metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// SetDraining flips the HTTP-level draining flag (503 on /run,
// failing readiness) without touching the scheduler — tests use it to
// observe the drained surface; production drains via BeginDrain.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports the HTTP-level draining flag.
func (s *Server) Draining() bool { return s.draining.Load() }

// BeginDrain starts a graceful drain: admission stops (503 + failing
// readiness) and the scheduler finishes in-flight and queued work
// before returning.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.svc.Drain()
}

// Handler returns the endpoint mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/runbatch", s.handleRunBatch)
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/experiments", s.handleCatalog)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/watch", s.handleWatch)
	mux.HandleFunc("/trace/", s.handleTrace)
	mux.HandleFunc("/cache/", s.handleCache)
	return mux
}

// HTTPPeerFetch builds the default cross-node cache-fill transport:
// GET {peer}/cache/{key} with the caller's context. A 404 (peer does
// not hold the key) returns (nil, nil) so the service falls back to
// computing; transport errors propagate for the same fallback.
func HTTPPeerFetch(client *http.Client) func(ctx context.Context, peerURL, key string) (*service.Result, error) {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	return func(ctx context.Context, peerURL, key string) (*service.Result, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peerURL+"/cache/"+key, nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, resp.Body)
			return nil, nil
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return nil, fmt.Errorf("peer %s: /cache/{key} = %d", peerURL, resp.StatusCode)
		}
		var res service.Result
		if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&res); err != nil {
			return nil, fmt.Errorf("peer %s: invalid cache body: %w", peerURL, err)
		}
		return &res, nil
	}
}
