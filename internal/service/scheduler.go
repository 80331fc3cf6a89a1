package service

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// ShedRetryAfter is the fallback backoff hint attached to shed
// responses when no measured drain rate is available yet. Once the
// limiter has seen completions, rejections carry an honest estimate
// instead.
const ShedRetryAfter = 250 * time.Millisecond

// SchedulerConfig tunes the worker pool and its admission-control
// stack.
type SchedulerConfig struct {
	// Workers is the pool size (default 4).
	Workers int
	// QueueDepth bounds each priority lane's admission queue
	// (default 64). A full lane sheds instead of queueing.
	QueueDepth int
	// Quota arms per-tenant token-bucket admission quotas (zero value
	// = disabled).
	Quota QuotaConfig
	// Limiter arms the adaptive concurrency limiter (TargetP99 <= 0 =
	// disabled). MaxLimit defaults to Workers + 3*QueueDepth.
	Limiter LimiterConfig
	// Breaker arms the per-tenant, per-scenario-class circuit breakers
	// (Threshold 0 = disabled).
	Breaker BreakerConfig
	// AgingThreshold is the queue wait at which any request outranks
	// strict lane order (no starvation). Default 1s; negative disables
	// aging.
	AgingThreshold time.Duration
	// Now is the clock seam (default time.Now). Every time-dependent
	// admission decision — token refill, aging, breaker cooldowns,
	// drain-rate estimates — reads this clock, so tests and the
	// deterministic tenant soak are byte-reproducible.
	Now func() time.Time
	// Metrics, when non-nil, receives queue-depth and in-flight gauges
	// plus per-outcome request, tenant, limiter, and breaker counters.
	Metrics *obs.Registry
	// Bus, when non-nil, receives admission transitions (admitted, shed
	// with reason, limiter adjustments, breaker events) as live events.
	// Publishes are gated on Bus.Active(), so an unwatched server pays
	// one atomic load per decision.
	Bus *obs.Bus
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.AgingThreshold == 0 {
		c.AgingThreshold = time.Second
	}
	if c.AgingThreshold < 0 {
		c.AgingThreshold = 0 // disabled
	}
	if c.Limiter.MaxLimit <= 0 {
		c.Limiter.MaxLimit = c.Workers + 3*c.QueueDepth
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Admit identifies one admission: who is asking (tenant), how urgent
// (priority lane), and what class of work it is (the circuit-breaker
// grouping, e.g. "scenario/stack-ret").
type Admit struct {
	Tenant   string
	Priority Priority
	// Class groups executions for the circuit breaker; empty defaults
	// to ID.
	Class string
	// ID names the unit of work in supervision records.
	ID string
	// Trace, when non-nil, receives the queue-wait stage and scopes the
	// admission events this request publishes on the bus.
	Trace *RequestTrace
	// Trusted marks a request already admitted upstream (the cluster
	// router's quota and limiter, relayed via the X-PN-Admitted hop
	// header). Trusted requests skip the local quota and limiter — take
	// and give back nothing — so fleet accounting never double-counts;
	// the circuit breaker still applies, because failure history is
	// worker-local.
	Trusted bool
}

// task is one admitted unit of work.
type task struct {
	ctx      context.Context
	adm      Admit
	fn       func(ctx context.Context) (any, error)
	done     chan taskResult
	admitted time.Time
	// soak carries the simulated job when the deterministic tenant soak
	// drives the fair queue directly (nil on the live path).
	soak *soakJob
}

type taskResult struct {
	val any
	err error
}

// Scheduler is a bounded worker pool with a multi-tenant admission
// stack in front of weighted-fair priority lanes:
//
//  1. Per-tenant token-bucket quotas throttle aggressive clients at
//     the door (reason "quota").
//  2. Per-(tenant, class) circuit breakers fast-fail scenario classes
//     that keep dying, per tenant, without touching healthy traffic
//     (reason "breaker_open").
//  3. An adaptive concurrency limiter (AIMD on observed p99 vs a
//     target) sheds before the queues saturate (reason "limiter").
//  4. Each lane is an indexed per-tenant multi-queue drained by
//     deficit round-robin, with priority aging promoting long-waiting
//     work so nothing starves (reason "queue_full" when a lane is at
//     capacity).
//
// Admission is non-blocking; every refusal is a structured Rejection
// whose RetryAfterMS is computed from measured state. Each execution
// runs under resilience supervision so a panicking scenario degrades
// that one request, not the process.
type Scheduler struct {
	cfg      SchedulerConfig
	fq       *fairQueue
	quotas   *TenantQuotas
	limiter  *Limiter
	breakers *breakerSet

	mu       sync.Mutex
	draining bool
	inflight atomic.Int64

	wg sync.WaitGroup
}

// NewScheduler builds and starts the pool.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{cfg: cfg}
	s.quotas = NewTenantQuotas(cfg.Quota, cfg.Now)
	lim := cfg.Limiter
	lim.OnAdjust = func(direction string, limit int) {
		cfg.Metrics.Inc(obs.MetricServeLimitEvents, obs.L("direction", direction))
		cfg.Metrics.Set(obs.MetricServeLimitValue, float64(limit))
		if cfg.Bus.Active() {
			cfg.Bus.Publish(obs.KindAdmission, "", "", map[string]string{
				"action": "limit", "direction": direction, "limit": strconv.Itoa(limit)})
		}
	}
	s.limiter = NewLimiter(lim)
	brk := cfg.Breaker
	brk.OnEvent = func(event, tenant, class string) {
		cfg.Metrics.Inc(obs.MetricServeBreakerEvents,
			obs.L("event", event), obs.L("tenant", tenant), obs.L("class", class))
		if cfg.Bus.Active() {
			cfg.Bus.Publish(obs.KindAdmission, "", tenant, map[string]string{
				"action": "breaker", "event": event, "class": class})
		}
	}
	s.breakers = newBreakerSet(brk, cfg.Now)
	s.fq = newFairQueue(cfg.QueueDepth, cfg.AgingThreshold, cfg.Quota.WeightFor, cfg.Now)
	s.fq.onPromote = func(tenant string) {
		cfg.Metrics.Inc(obs.MetricServeAgedPromotions, obs.L("tenant", tenant))
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Drain stops admitting new work. In-flight and already-queued work
// still completes; call Wait to join it.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	s.fq.close()
}

// Draining reports whether Drain was called.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Wait blocks until every worker has exited. Only meaningful after
// Drain.
func (s *Scheduler) Wait() { s.wg.Wait() }

// QueueLen returns a lane's current depth (all tenants).
func (s *Scheduler) QueueLen(p Priority) int { return s.fq.len(p) }

// TenantQueueLen returns one tenant's depth in a lane.
func (s *Scheduler) TenantQueueLen(p Priority, tenant string) int {
	return s.fq.tenantLen(p, NormalizeTenant(tenant))
}

// Limiter exposes the adaptive concurrency limiter (readiness probes
// read Saturated).
func (s *Scheduler) Limiter() *Limiter { return s.limiter }

// Quotas exposes the tenant quota table (for tests and tooling).
func (s *Scheduler) Quotas() *TenantQuotas { return s.quotas }

// BreakerOpen reports whether (tenant, class) is fast-failing.
func (s *Scheduler) BreakerOpen(tenant, class string) bool {
	return s.breakers.open(NormalizeTenant(tenant), class)
}

// AgedPromotions returns how many queued requests were served via the
// aging path.
func (s *Scheduler) AgedPromotions() uint64 { return s.fq.Promotions() }

// Do admits fn for adm and waits for its completion. The contract the
// serving layer depends on:
//
//   - Every refusal — tenant out of quota, breaker open, limiter at
//     its adaptive limit, lane full, draining — returns a *Rejection
//     immediately with a machine-readable Reason and an honest
//     RetryAfterMS.
//   - After Drain, every Do returns the draining Rejection.
//   - A request whose ctx ends while still queued is never executed;
//     it is surgically removed from its fairness queue and its quota
//     token and limiter slot are given back, and Do returns ctx.Err().
//   - fn runs under resilience supervision with the context's
//     remaining time as its deadline: panics become structured
//     *ExecError values, not process crashes.
func (s *Scheduler) Do(ctx context.Context, adm Admit, fn func(ctx context.Context) (any, error)) (any, error) {
	adm.Tenant = NormalizeTenant(adm.Tenant)
	if adm.Class == "" {
		adm.Class = adm.ID
	}
	if s.Draining() {
		return nil, s.reject(adm, ReasonDraining, ShedRetryAfter)
	}
	if ok, wait := s.breakers.allow(adm.Tenant, adm.Class); !ok {
		s.shed(adm, ReasonBreakerOpen)
		return nil, s.reject(adm, ReasonBreakerOpen, wait)
	}
	if !adm.Trusted {
		if ok, wait := s.quotas.TryTake(adm.Tenant); !ok {
			s.shed(adm, ReasonQuota)
			return nil, s.reject(adm, ReasonQuota, wait)
		}
	}
	now := s.cfg.Now()
	if !adm.Trusted && !s.limiter.TryAcquire() {
		s.quotas.Refund(adm.Tenant)
		s.shed(adm, ReasonLimiter)
		return nil, s.reject(adm, ReasonLimiter, s.limiter.RetryAfter(now, ShedRetryAfter))
	}
	t := &task{ctx: ctx, adm: adm, fn: fn, done: make(chan taskResult, 1), admitted: now}
	entry, pres := s.fq.push(t, adm.Tenant, adm.Priority)
	switch pres {
	case pushFull:
		s.refund(adm)
		s.shed(adm, ReasonQueueFull)
		return nil, s.reject(adm, ReasonQueueFull, s.limiter.RetryAfter(now, ShedRetryAfter))
	case pushClosed:
		s.refund(adm)
		return nil, s.reject(adm, ReasonDraining, ShedRetryAfter)
	}
	s.gauges()
	if s.cfg.Bus.Active() {
		s.cfg.Bus.Publish(obs.KindAdmission, adm.Trace.Ref(), adm.Tenant, map[string]string{
			"action": "admitted", "lane": adm.Priority.String()})
	}
	select {
	case r := <-t.done:
		return r.val, r.err
	case <-ctx.Done():
		if s.fq.remove(entry) {
			// Still queued: the request consumed nothing, so its lane
			// slot, quota token, and limiter slot are all given back —
			// the no-leak contract.
			s.refund(adm)
			s.gauges()
		}
		// Otherwise a worker already claimed it; the worker re-checks
		// ctx before executing and owns the accounting either way.
		s.count(adm, "canceled")
		return nil, ctx.Err()
	}
}

// refund returns the quota token and limiter slot a non-trusted
// admission took. Trusted admissions took neither, so they return
// neither — the accounting stays balanced on both paths.
func (s *Scheduler) refund(adm Admit) {
	if adm.Trusted {
		return
	}
	s.quotas.Refund(adm.Tenant)
	s.limiter.Cancel()
}

// reject builds the structured refusal for adm.
func (s *Scheduler) reject(adm Admit, reason string, retryAfter time.Duration) *Rejection {
	ms := retryAfter.Milliseconds()
	if ms <= 0 {
		ms = 1
	}
	return &Rejection{
		Code:         reasonCode(reason),
		Reason:       reason,
		Tenant:       adm.Tenant,
		Lane:         adm.Priority.String(),
		QueueLen:     s.fq.len(adm.Priority),
		QueueCap:     s.cfg.QueueDepth,
		RetryAfterMS: ms,
	}
}

// shed records one shed decision in the lane, reason, and tenant
// metric families, and announces it on the bus.
func (s *Scheduler) shed(adm Admit, reason string) {
	s.cfg.Metrics.Inc(obs.MetricServeRequests, obs.L("lane", adm.Priority.String()), obs.L("outcome", "shed"))
	s.cfg.Metrics.Inc(obs.MetricServeShed, obs.L("lane", adm.Priority.String()), obs.L("reason", reason))
	s.cfg.Metrics.Inc(obs.MetricServeTenantShed, obs.L("tenant", adm.Tenant), obs.L("reason", reason))
	if s.cfg.Bus.Active() {
		s.cfg.Bus.Publish(obs.KindAdmission, adm.Trace.Ref(), adm.Tenant, map[string]string{
			"action": "shed", "reason": reason, "lane": adm.Priority.String()})
	}
}

func (s *Scheduler) count(adm Admit, outcome string) {
	s.cfg.Metrics.Inc(obs.MetricServeRequests, obs.L("lane", adm.Priority.String()), obs.L("outcome", outcome))
	s.cfg.Metrics.Inc(obs.MetricServeTenantRequests, obs.L("tenant", adm.Tenant), obs.L("outcome", outcome))
	if s.cfg.Bus.Active() {
		s.cfg.Bus.Publish(obs.KindMetric, adm.Trace.Ref(), adm.Tenant, map[string]string{
			"name": obs.MetricServeRequests, "delta": "1",
			"lane": adm.Priority.String(), "outcome": outcome})
	}
}

func (s *Scheduler) gauges() {
	if s.cfg.Metrics == nil {
		return
	}
	for p := PriorityHigh; p <= PriorityLow; p++ {
		s.cfg.Metrics.Set(obs.MetricServeQueueDepth, float64(s.fq.len(p)), obs.L("lane", p.String()))
	}
	if s.limiter.Enabled() {
		s.cfg.Metrics.Set(obs.MetricServeLimitValue, float64(s.limiter.Limit()))
		s.cfg.Metrics.Set(obs.MetricServeLimitOutstanding, float64(s.limiter.Outstanding()))
	}
}

// worker drains the fair queue until Drain and all lanes are empty.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		e := s.fq.pop()
		if e == nil {
			return
		}
		s.execute(e.t)
		s.gauges()
	}
}

// execute runs one task under supervision, honouring its context.
func (s *Scheduler) execute(t *task) {
	if err := t.ctx.Err(); err != nil {
		// Cancelled or expired between claim and execution: never run.
		// Do's ctx arm already reported the outcome; the limiter slot is
		// returned without a latency sample.
		if !t.adm.Trusted {
			s.limiter.Cancel()
		}
		t.done <- taskResult{err: err}
		return
	}
	s.cfg.Metrics.Set(obs.MetricServeInflight, float64(s.inflight.Add(1)))
	defer func() { s.cfg.Metrics.Set(obs.MetricServeInflight, float64(s.inflight.Add(-1))) }()
	start := s.cfg.Now()
	// Queue wait: admission to worker pickup — the stage that grows
	// first under overload.
	s.cfg.Metrics.Observe(obs.MetricServeStageQueueWait, durMS(start.Sub(t.admitted)),
		obs.L("lane", t.adm.Priority.String()))
	t.adm.Trace.Stage(StageQueueWait, t.admitted, start, nil)

	pol := resilience.Policy{MaxAttempts: 1}
	if dl, ok := t.ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			if !t.adm.Trusted {
				s.limiter.Cancel()
			}
			t.done <- taskResult{err: context.DeadlineExceeded}
			return
		}
		pol.Timeout = remaining
	}
	res := resilience.Supervise(resilience.Job{
		ID:  t.adm.ID,
		Run: func(ctx context.Context, attempt int) (any, error) { return t.fn(ctx) },
	}, pol)

	end := s.cfg.Now()
	// The limiter's AIMD signal is the full admission-to-completion
	// sojourn time: queueing delay is the earliest symptom of overload.
	// Trusted work never acquired a slot, so it contributes no sample —
	// the router's limiter observes the end-to-end latency instead.
	if !t.adm.Trusted {
		s.limiter.Release(end.Sub(t.admitted), end)
	}
	s.cfg.Metrics.Observe(obs.MetricServeLatency, float64(end.Sub(start).Milliseconds()),
		obs.L("lane", t.adm.Priority.String()))

	if res.Status == resilience.StatusOK {
		s.breakers.success(t.adm.Tenant, t.adm.Class)
		s.count(t.adm, "ok")
		t.done <- taskResult{val: res.Value}
		return
	}
	s.breakers.failure(t.adm.Tenant, t.adm.Class)
	s.count(t.adm, string(res.Status))
	t.done <- taskResult{err: &ExecError{
		ID:      t.adm.ID,
		Status:  res.Status,
		Crashes: res.Crashes,
		Message: res.Err,
	}}
}
