// Package service is the serving layer: it turns the repository's
// experiment/attack corpus into a servable workload. A bounded
// worker-pool Scheduler with priority lanes and load shedding admits
// requests; a content-addressed Cache (LRU + singleflight) exploits
// the corpus's determinism — the same experiment under the same data
// model, chaos seed/config, and code version always produces the same
// bytes, so the safe path is the fast path; and supervised execution
// (internal/resilience) turns a panicking scenario into one degraded
// request instead of a dead process. cmd/pnserve exposes the service
// over HTTP; the TestSoak* tests replay its admission sequence as a
// deterministic multi-tenant soak (soak_test.go).
package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/chaos"
	"repro/internal/compile"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Config assembles a Service.
type Config struct {
	// Workers/QueueDepth tune the scheduler (see SchedulerConfig).
	Workers    int
	QueueDepth int
	// CacheCapacity bounds the result cache (see CacheConfig).
	CacheCapacity int
	// DefaultDeadline bounds requests that do not set their own
	// (default 15s). The deadline covers queueing and execution.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-supplied deadlines (default 60s).
	MaxDeadline time.Duration
	// Quota arms per-tenant token-bucket admission quotas (zero value =
	// disabled; see QuotaConfig).
	Quota QuotaConfig
	// Breaker arms per-tenant, per-scenario-class circuit breakers
	// (Threshold 0 = disabled; see BreakerConfig).
	Breaker BreakerConfig
	// AgingThreshold is the scheduler's starvation bound: queue wait at
	// which any request outranks strict lane order (default 1s, negative
	// disables).
	AgingThreshold time.Duration
	// Now is the admission clock seam (default time.Now); injected by
	// deterministic tests and the tenant soak.
	Now func() time.Time
	// Registry, when non-nil, receives the serving metrics (request,
	// cache, shed counters; queue and in-flight gauges; latency
	// histogram).
	Registry *obs.Registry
	// Bus, when non-nil, receives live span/heat/admission events for
	// /watch subscribers. All publishes are gated on Bus.Active(), so an
	// unwatched server pays one atomic load per seam.
	Bus *obs.Bus
	// TraceCapacity bounds the finished-trace store backing GET
	// /trace/{id} (default DefaultTraceCapacity).
	TraceCapacity int
	// PeerFetch, when non-nil, arms cross-node cache fill: on a cache
	// miss whose request carries a FillFrom peer URL (set by the cluster
	// router after a ring rebalance), the service asks the peer for its
	// cached result before computing. A successful clone is stored
	// locally and served with the CacheCloned token; any error falls
	// back to normal execution.
	PeerFetch func(ctx context.Context, peerURL, key string) (*Result, error)
	// Compiled arms the compiled-program tier (internal/compile):
	// cache-miss scenario executions without chaos or detail tracing
	// are lowered once per (scenario, defense, model) into a
	// straight-line op program and replayed through the flat dispatch
	// loop on subsequent misses. The program cache, bounded at
	// compiledCacheCapacity specializations, sits alongside the
	// content-addressed result cache; anything not compilable falls
	// back to the interpreted path transparently.
	Compiled bool
}

// compiledCacheCapacity bounds the compiled-program cache.
const compiledCacheCapacity = 256

func (c Config) withDefaults() Config {
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 15 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Service schedules, executes, and caches corpus requests.
type Service struct {
	cfg      Config
	sched    *Scheduler
	cache    *Cache
	reg      *obs.Registry
	pool     *mem.ImagePool
	programs *compile.Cache // non-nil only when Config.Compiled
	bus      *obs.Bus
	traces   *TraceStore
	traceSeq atomic.Uint64
}

// New builds a Service and starts its worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	describeServeMetrics(reg)
	s := &Service{
		cfg:    cfg,
		reg:    reg,
		bus:    cfg.Bus,
		traces: NewTraceStore(cfg.TraceCapacity),
		sched: NewScheduler(SchedulerConfig{
			Workers:        cfg.Workers,
			QueueDepth:     cfg.QueueDepth,
			Quota:          cfg.Quota,
			Breaker:        cfg.Breaker,
			AgingThreshold: cfg.AgingThreshold,
			Now:            cfg.Now,
			Metrics:        reg,
			Bus:            cfg.Bus,
		}),
	}
	s.cache = NewCache(CacheConfig{
		Capacity: cfg.CacheCapacity,
		OnEvent: func(event string) {
			reg.Inc(obs.MetricServeCache, obs.L("event", event))
			if cfg.Bus.Active() {
				cfg.Bus.Publish(obs.KindMetric, "", "", map[string]string{
					"name": obs.MetricServeCache, "delta": "1", "event": event})
			}
		},
	})
	// Every scenario request sources its process address space from a
	// pool of prewarmed copy-on-write templates, so a cache miss clones
	// a pristine image in O(pages) pointer operations instead of
	// allocating and zeroing fresh segments.
	s.pool = mem.NewImagePool()
	s.pool.OnEvent = func(event string) {
		reg.Inc(obs.MetricServePool, obs.L("event", event))
	}
	// Prewarm the canonical image configurations the defense catalogue
	// produces (only ExecStack varies; segment sizes stay at their
	// defaults), so even the very first cache miss clones instead of
	// constructing.
	s.pool.Prewarm(mem.ImageConfig{}, mem.ImageConfig{ExecStack: true})
	if cfg.Compiled {
		s.programs = compile.NewCache(compiledCacheCapacity)
	}
	return s
}

// Pool exposes the image template pool. Used by tests to assert
// template isolation and by tooling to read stats.
func (s *Service) Pool() *mem.ImagePool { return s.pool }

// Programs exposes the compiled-program cache (nil when the compiled
// tier is disabled). Tooling reads its stats; tests use it to assert
// singleflight compilation and evict-while-executing safety.
func (s *Service) Programs() *compile.Cache { return s.programs }

// describeServeMetrics declares the serving metric families on reg.
func describeServeMetrics(reg *obs.Registry) {
	reg.Describe(obs.MetricServeRequests, "serving requests finished, by lane and outcome", obs.TypeCounter)
	reg.Describe(obs.MetricServeCache, "result-cache events, by event", obs.TypeCounter)
	reg.Describe(obs.MetricServeShed, "requests shed at admission, by lane and reason", obs.TypeCounter)
	reg.Describe(obs.MetricServeTenantRequests, "serving requests finished, by tenant and outcome", obs.TypeCounter)
	reg.Describe(obs.MetricServeTenantShed, "requests shed at admission, by tenant and reason", obs.TypeCounter)
	reg.Describe(obs.MetricServeAgedPromotions, "queued requests served via priority aging, by tenant", obs.TypeCounter)
	reg.Describe(obs.MetricServeBreakerEvents, "circuit-breaker transitions, by event, tenant, and class", obs.TypeCounter)
	reg.Describe(obs.MetricServePool, "image template pool events, by event", obs.TypeCounter)
	reg.Describe(obs.MetricServeQueueDepth, "admission-queue depth, by lane", obs.TypeGauge)
	reg.Describe(obs.MetricServeInflight, "requests currently executing", obs.TypeGauge)
	reg.Describe(obs.MetricServeLatency, "request execution latency in milliseconds, by lane",
		obs.TypeHistogram, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000)
	stageBuckets := []float64{0.01, 0.05, 0.25, 1, 5, 25, 100, 500, 2000}
	reg.Describe(obs.MetricServeStageQueueWait, "admission-to-worker queue wait in milliseconds, by lane",
		obs.TypeHistogram, stageBuckets...)
	reg.Describe(obs.MetricServeStageCacheLookup, "result-cache lookup time in milliseconds (hits and coalesced waits)",
		obs.TypeHistogram, stageBuckets...)
	reg.Describe(obs.MetricServeStageCacheFill, "cross-node cache fill time in milliseconds (cloning a miss from a peer)",
		obs.TypeHistogram, stageBuckets...)
	reg.Describe(obs.MetricServeStageClone, "image acquisition time in milliseconds (template clone or construction)",
		obs.TypeHistogram, stageBuckets...)
	reg.Describe(obs.MetricServeStageExecute, "corpus execution time in milliseconds",
		obs.TypeHistogram, stageBuckets...)
	reg.Describe(obs.MetricServeStageShadowCheck, "time spent in shadow write checks in milliseconds (detail mode only)",
		obs.TypeHistogram, stageBuckets...)
}

// Scheduler exposes the pool (for drain and tests).
func (s *Service) Scheduler() *Scheduler { return s.sched }

// Cache exposes the result cache (for tests and tooling).
func (s *Service) Cache() *Cache { return s.cache }

// Drain stops admitting requests and waits for in-flight work.
func (s *Service) Drain() {
	s.sched.Drain()
	s.sched.Wait()
}

// Handle validates req, applies its deadline, and serves it — from the
// cache when possible, otherwise through the scheduler. The returned
// token is one of the Cache* event values (CacheHit, CacheMiss,
// CacheCoalesced, CacheBypass).
func (s *Service) Handle(ctx context.Context, req Request) (*Result, string, error) {
	res, token, _, err := s.HandleTraced(ctx, req)
	return res, token, err
}

// Trace returns a finished request trace by ID (GET /trace/{id}).
func (s *Service) Trace(id string) (*RequestTrace, bool) { return s.traces.Get(id) }

// Bus exposes the live event bus (nil when not configured).
func (s *Service) Bus() *obs.Bus { return s.bus }

// nextTraceID mints a deterministic trace identity: a process-local
// counter, not randomness, so a deterministic-clock server streams
// byte-identical IDs across double runs.
func (s *Service) nextTraceID() string {
	return "t-" + fmt.Sprint(s.traceSeq.Add(1))
}

// HandleTraced is Handle plus request-scoped tracing: it mints (or
// honours) the trace ID, threads it through admission and execution,
// records the per-stage latency breakdown, and returns the finished
// trace alongside the result. The trace is also retained for GET
// /trace/{id}. A client-supplied TraceID (or an attached /watch
// subscriber) arms detailed per-write instrumentation for the request;
// otherwise tracing costs a handful of clock reads.
func (s *Service) HandleTraced(ctx context.Context, req Request) (*Result, string, *RequestTrace, error) {
	n, err := normalize(req)
	if err != nil {
		return nil, "", nil, err
	}

	traceID := req.TraceID
	clientTraced := traceID != ""
	if traceID == "" {
		traceID = s.nextTraceID()
	}
	rt := newRequestTrace(traceID, n.tenant, n.kind, n.id, s.cfg.Now, s.bus)
	rt.detail = clientTraced || s.bus.Active()

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	execute := func() (*Result, error) {
		adm := Admit{
			Tenant:   n.tenant,
			Priority: n.priority,
			Class:    n.kind + "/" + n.id,
			ID:       n.kind + "/" + n.id,
			Trusted:  n.Admitted,
			Trace:    rt,
		}
		v, err := s.sched.Do(ctx, adm, func(ctx context.Context) (any, error) {
			return s.compute(ctx, n, rt)
		})
		if err != nil {
			return nil, err
		}
		res, ok := v.(*Result)
		if !ok {
			return nil, fmt.Errorf("service: compute returned %T, want *Result", v)
		}
		return res, nil
	}

	var res *Result
	var token string
	if n.NoCache {
		res, err = execute()
		token = CacheBypass
		if err == nil {
			s.cache.Put(n.key, res)
			s.reg.Inc(obs.MetricServeCache, obs.L("event", CacheBypass))
		}
	} else {
		lookupStart := s.cfg.Now()
		cloned := false
		miss := execute
		if n.FillFrom != "" && s.cfg.PeerFetch != nil {
			// Cross-node cache fill: this key moved shards in a ring
			// rebalance, so before computing, ask the replica that owned it
			// for its cached bytes. Only the flight leader runs this, so a
			// result is cloned (or computed) at most once fleet-wide.
			miss = func() (*Result, error) {
				fillStart := s.cfg.Now()
				if peer, ferr := s.cfg.PeerFetch(ctx, n.FillFrom, n.key); ferr == nil && peer != nil {
					cloned = true
					fillEnd := s.cfg.Now()
					rt.Stage(StageCacheFill, fillStart, fillEnd, map[string]string{"peer": n.FillFrom})
					s.reg.Observe(obs.MetricServeStageCacheFill, durMS(fillEnd.Sub(fillStart)))
					return peer, nil
				}
				return execute()
			}
		}
		res, token, err = s.cache.Do(ctx, n.key, miss)
		if token == CacheMiss && cloned {
			token = CacheCloned
			s.reg.Inc(obs.MetricServeCache, obs.L("event", CacheCloned))
		}
		if token == CacheHit || token == CacheCoalesced {
			// On a hit or coalesced wait the whole Do call is lookup; on
			// a miss this request led the execution and its time is
			// accounted by the execute/clone stages instead.
			lookupEnd := s.cfg.Now()
			rt.Stage(StageCacheLookup, lookupStart, lookupEnd, map[string]string{"token": token})
			s.reg.Observe(obs.MetricServeStageCacheLookup, durMS(lookupEnd.Sub(lookupStart)))
		}
	}

	status := "error"
	if err == nil {
		status = res.Status
	}
	rt.finish(status, token, err)
	s.traces.Put(rt)
	return res, token, rt, err
}

// compute executes one validated request on a worker goroutine. It is
// the single place the serving path calls into the corpus. Deadlines
// are cooperative: ctx is checked before each repeat iteration, so a
// request whose context ends stops at its next iteration. Iterations
// hold no check of their own: repeat is the only trip count a client
// sets, so a run overshoots its deadline by at most one iteration.
func (s *Service) compute(ctx context.Context, n *request, rt *RequestTrace) (*Result, error) {
	start := s.cfg.Now()
	res := &Result{
		Key:     n.key,
		Kind:    n.kind,
		ID:      n.id,
		Version: CodeVersion,
	}
	if n.Repeat > 1 {
		res.Repeat = n.Repeat
	}
	switch n.kind {
	case "experiment":
		// Repeat > 1 is a measurement loop: the run is deterministic, so
		// every iteration produces the same table and only the aggregate
		// compute time changes.
		for i := 0; i < n.Repeat; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			t, err := n.exp.Run(experiments.Instrument{})
			if err != nil {
				return nil, err
			}
			res.Status = "ok"
			res.Table = t.Data()
		}
	default:
		totalInjected := 0
		for i := 0; i < n.Repeat; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			o, injected, err := s.runScenario(n, rt, start)
			if err != nil {
				return nil, err
			}
			totalInjected += injected
			res.Defense = n.Defense
			res.Model = n.Model
			res.Seed = n.Seed
			res.ChaosProb = n.ChaosProb
			res.Faults = n.Faults
			res.Status = o.Status()
			res.Details = o.Details
			res.Metrics = o.Metrics
			res.Table = outcomeTable(o, n.Model).Data()
		}
		res.InjectedFaults = totalInjected
	}
	end := s.cfg.Now()
	res.ComputeNS = end.Sub(start).Nanoseconds()
	rt.Stage(StageExecute, start, end, nil)
	s.reg.Observe(obs.MetricServeStageExecute, durMS(end.Sub(start)))
	return res, nil
}

// runScenario executes one attack scenario under its defense config
// and optional chaos overlay. Everything is request-local — injector,
// process hook, defense config copy, observers — so scenario requests
// are safe to run concurrently. The image template pool is shared, but
// only through immutable copy-on-write pages: every process clones its
// address space from a pristine template and copies any page before
// writing it.
//
// execStart is when the worker began this request: the window from it
// to the first process construction is the clone stage (template clone
// or image construction plus defense wiring).
func (s *Service) runScenario(n *request, rt *RequestTrace, execStart time.Time) (*attack.Outcome, int, error) {
	// Compiled fast path: chaos-free, non-detail scenario runs replay a
	// cached straight-line program instead of interpreting. Chaos
	// injection and detail tracing need the interpreted machinery (they
	// instrument the run as it happens); anything the compiler rejects
	// falls through to interpretation below.
	if s.programs != nil && n.ChaosProb == 0 && !rt.Detail() {
		if o, ok := s.runCompiled(n, rt, execStart); ok {
			return o, 0, nil
		}
	}

	cfg := n.defCfg // copy; the catalogue config stays pristine
	cfg.Pool = s.pool
	var inj *chaos.Injector
	if n.ChaosProb > 0 {
		inj = chaos.New(chaos.Config{
			Seed:  chaos.DeriveSeed(n.Seed, n.id, n.Defense, n.Model),
			Prob:  n.ChaosProb,
			Kinds: n.kinds,
			// Faults surface as synchronous signals (panics); the
			// scheduler's supervision catches them — the SIGSEGV -> one
			// degraded request path.
			PanicOnFault: true,
		})
		prev := cfg.OnProcess
		cfg.OnProcess = func(p *machine.Process) {
			if prev != nil {
				prev(p)
			}
			inj.Arm(p.Mem)
		}
	}

	// Request-scoped observation. The clone stage (execute start to
	// first process) is recorded whenever a trace exists; the per-write
	// instrumentation — shadow-check timing, heat-tile streaming, live
	// machine events — only in detail mode, because it costs clock reads
	// or map updates on the hot write path.
	var cloneOnce sync.Once
	var shadows []*timedShadow
	var shadowMu sync.Mutex
	var hs *heatStream
	if rt.Detail() && s.bus.Active() {
		hs = newHeatStream(s.bus, rt.Ref(), rt.Tenant)
	}
	if rt != nil {
		prev := cfg.OnProcess
		bus := s.bus
		cfg.OnProcess = func(p *machine.Process) {
			if prev != nil {
				prev(p)
			}
			cloneOnce.Do(func() {
				end := s.cfg.Now()
				rt.Stage(StageClone, execStart, end, nil)
				s.reg.Observe(obs.MetricServeStageClone, durMS(end.Sub(execStart)))
			})
			if rt.Detail() {
				if sh := p.Mem.Shadow(); sh != nil {
					ts := &timedShadow{inner: sh, now: s.cfg.Now}
					p.Mem.SetShadow(ts)
					shadowMu.Lock()
					shadows = append(shadows, ts)
					shadowMu.Unlock()
				}
			}
			if hs != nil {
				hs.publishSegments(p.Mem.Segments())
				p.Mem.SetAccessObserver(hs.record)
				trace, tenant := rt.Ref(), rt.Tenant
				p.SetEventObserver(func(ev machine.Event) {
					if bus.Active() {
						publishMachineEvent(bus, trace, tenant, ev)
					}
				})
			}
		}
	}

	o, err := n.scenario.Run(cfg)
	if hs != nil {
		hs.flush()
	}
	shadowMu.Lock()
	var shadowTotal time.Duration
	var shadowChecks uint64
	for _, ts := range shadows {
		d, c := ts.totals()
		shadowTotal += d
		shadowChecks += c
	}
	shadowMu.Unlock()
	if shadowChecks > 0 {
		end := s.cfg.Now()
		rt.Stage(StageShadowCheck, end.Add(-shadowTotal), end,
			map[string]string{"checks": fmt.Sprint(shadowChecks)})
		s.reg.Observe(obs.MetricServeStageShadowCheck, durMS(shadowTotal))
	}
	injected := 0
	if inj != nil {
		injected = inj.Count()
	}
	return o, injected, err
}

// runCompiled serves one scenario request from the compiled-program
// cache: compile on first use (singleflight per specialization), then
// replay through the flat dispatch loop with pool-cloned images. It
// reports ok=false — interpret instead — when the scenario is not
// compilable or the replay fails; both are safe to fall through
// because replay mutates only its own freshly acquired images.
func (s *Service) runCompiled(n *request, rt *RequestTrace, execStart time.Time) (*attack.Outcome, bool) {
	cfg := n.defCfg
	cfg.Pool = s.pool
	sp, err := s.programs.Get(n.scenario, cfg)
	if err != nil {
		return nil, false
	}
	o, _, err := sp.Run(s.pool)
	if err != nil {
		return nil, false
	}
	if rt != nil {
		end := s.cfg.Now()
		rt.Stage(StageClone, execStart, end, map[string]string{"compiled": "true"})
		s.reg.Observe(obs.MetricServeStageClone, durMS(end.Sub(execStart)))
	}
	return o, true
}
