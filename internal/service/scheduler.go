package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// ShedRetryAfter is the backoff hint attached to queue_full and
// draining rejections.
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
	// Breaker arms the per-tenant, per-scenario-class circuit breakers
	// (Threshold 0 = disabled).
	Breaker BreakerConfig
	// AgingThreshold is the queue wait at which any request outranks
	// strict lane order (no starvation). Default 1s; negative disables
	// aging.
	AgingThreshold time.Duration
	// Now is the clock seam (default time.Now). Every time-dependent
	// admission decision — token refill, aging, breaker cooldowns —
	// reads this clock, so tests and the deterministic tenant soak are
	// byte-reproducible.
	Now func() time.Time
	// Metrics, when non-nil, receives queue-depth and in-flight gauges
	// plus per-outcome request, tenant, and breaker counters.
	Metrics *obs.Registry
	// Bus, when non-nil, receives admission transitions (admitted, shed
	// with reason, breaker events) as live events.
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
	// router's quota, relayed via the X-PN-Admitted hop header). Trusted
	// requests skip the local quota — take and give back nothing — so
	// fleet accounting never double-counts; the circuit breaker still
	// applies, because failure history is worker-local.
	Trusted bool
}

// task is one admitted unit of work.
type task struct {
	ctx      context.Context
	adm      Admit
	fn       func(ctx context.Context) (any, error)
	done     chan taskResult
	admitted time.Time
	probe    bool // admitted as its breaker's half-open probe
}

type taskResult struct {
	val any
	err error
}

// Scheduler is a bounded worker pool with a multi-tenant admission
// stack in front of fair priority lanes:
//
//  1. Per-(tenant, class) circuit breakers fast-fail scenario classes
//     that keep dying, per tenant, without touching healthy traffic
//     (reason "breaker_open").
//  2. Per-tenant token-bucket quotas throttle aggressive clients at
//     the door (reason "quota").
//  3. Each lane is an indexed per-tenant multi-queue drained
//     round-robin, with priority aging promoting long-waiting work so
//     nothing starves (reason "queue_full" when a lane is at capacity).
//
// Admission is non-blocking; every refusal is a structured Rejection
// with a RetryAfterMS hint. Each execution runs on its worker under
// resilience supervision, so at most Workers runs exist and a
// panicking scenario degrades that one request, not the process.
type Scheduler struct {
	cfg SchedulerConfig
	admission

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
	s.fq = newFairQueue(cfg.QueueDepth, cfg.AgingThreshold, cfg.Now)
	s.now = cfg.Now
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
//   - Every refusal — breaker open, tenant out of quota, lane full,
//     draining — returns a *Rejection immediately with a
//     machine-readable Reason and a RetryAfterMS hint.
//   - After Drain, every Do returns the draining Rejection.
//   - A request whose ctx ends while still queued is never executed;
//     it is surgically removed from its fairness queue, its quota token
//     is given back, and Do returns ctx.Err().
//   - A half-open breaker probe shed, cancelled or expired before it
//     ran, or cancelled during its run, is released for the next one.
//   - fn runs on a worker under resilience supervision, with ctx:
//     panics become structured *ExecError values, not process crashes.
//     When ctx ends during the run, Do returns ctx.Err() at once and fn
//     is expected to stop at its next check of ctx.
//   - Each request is counted under exactly one outcome.
func (s *Scheduler) Do(ctx context.Context, adm Admit, fn func(ctx context.Context) (any, error)) (any, error) {
	adm.Tenant = NormalizeTenant(adm.Tenant)
	if adm.Class == "" {
		adm.Class = adm.ID
	}
	if s.Draining() {
		return nil, s.reject(adm, ReasonDraining, ShedRetryAfter)
	}
	t := &task{ctx: ctx, adm: adm, fn: fn, done: make(chan taskResult, 1)}
	// The admission event is published before a worker can claim the
	// task, so the stream never shows its queue wait ending first.
	var announce func()
	if s.cfg.Bus.Active() {
		announce = func() {
			s.cfg.Bus.Publish(obs.KindAdmission, adm.Trace.Ref(), adm.Tenant, map[string]string{
				"action": "admitted", "lane": adm.Priority.String()})
		}
	}
	entry, reason, wait := s.admit(t, announce)
	if entry == nil {
		if reason != ReasonDraining {
			s.shed(adm, reason)
		}
		return nil, s.reject(adm, reason, wait)
	}
	s.gauges()
	select {
	case r := <-t.done:
		return r.val, r.err
	case <-ctx.Done():
		if s.fq.remove(entry) {
			// Still queued: the request consumed nothing, so its lane
			// slot, quota token and any breaker probe are all given
			// back — the no-leak contract.
			s.refund(t)
			s.gauges()
			s.count(adm, ctxOutcome(ctx.Err()))
		}
		// Otherwise a worker already claimed it and owns its
		// accounting; its send on the buffered done never blocks.
		return nil, ctx.Err()
	}
}

// ctxOutcome labels a request whose context ended before it finished:
// "timeout" for a deadline, "canceled" for a cancel.
func ctxOutcome(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "timeout"
	}
	return "canceled"
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

// execute runs one claimed task on this worker under supervision and
// counts its one outcome.
func (s *Scheduler) execute(t *task) {
	if err := t.ctx.Err(); err != nil {
		// Cancelled or expired between claim and execution: never run,
		// and a breaker probe is released without a verdict.
		s.breakers.release(t.adm.Tenant, t.adm.Class, t.probe)
		s.count(t.adm, ctxOutcome(err))
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

	res := resilience.Supervise(resilience.Job{
		ID:  t.adm.ID,
		Run: func(context.Context, int) (any, error) { return t.fn(t.ctx) },
	}, resilience.Policy{MaxAttempts: 1})

	end := s.cfg.Now()
	s.cfg.Metrics.Observe(obs.MetricServeLatency, durMS(end.Sub(start)),
		obs.L("lane", t.adm.Priority.String()))

	switch err := t.ctx.Err(); {
	case err != nil:
		// The context ended during the run. Do answers ctx.Err(), so the
		// worker answers the same and drops the run's result. A deadline
		// is the run's failure; a cancel is the client's, so a probe
		// cancelled mid-run gives no verdict and is released.
		if errors.Is(err, context.DeadlineExceeded) {
			s.breakers.failure(t.adm.Tenant, t.adm.Class)
		} else {
			s.breakers.release(t.adm.Tenant, t.adm.Class, t.probe)
		}
		s.count(t.adm, ctxOutcome(err))
		t.done <- taskResult{err: err}
	case res.Status == resilience.StatusOK:
		s.breakers.success(t.adm.Tenant, t.adm.Class)
		s.count(t.adm, "ok")
		t.done <- taskResult{val: res.Value}
	default:
		s.breakers.failure(t.adm.Tenant, t.adm.Class)
		s.count(t.adm, string(res.Status))
		t.done <- taskResult{err: &ExecError{ID: t.adm.ID, Status: res.Status, Crashes: res.Crashes, Message: res.Err}}
	}
}
