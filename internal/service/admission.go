package service

import (
	"strings"
	"sync"
	"time"
)

// DefaultTenant is the tenant requests fall into when the client sends
// no X-PN-Tenant header.
const DefaultTenant = "default"

// NormalizeTenant maps a raw tenant header value onto a stable tenant
// name: trimmed, lower-cased, capped at 64 bytes, empty → DefaultTenant.
func NormalizeTenant(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return DefaultTenant
	}
	if len(s) > 64 {
		s = s[:64]
	}
	return s
}

// QuotaConfig tunes per-tenant admission quotas: every tenant gets its
// own token bucket with these parameters. The zero value disables
// quotas entirely (every TryTake succeeds).
type QuotaConfig struct {
	// Rate is the sustained admission rate in requests per second
	// (<= 0 disables quotas); Burst is the bucket capacity — how far
	// above the sustained rate a tenant may briefly spike (default
	// 2x Rate).
	Rate  float64
	Burst float64
}

func (c QuotaConfig) withDefaults() QuotaConfig {
	if c.Rate > 0 && c.Burst <= 0 {
		c.Burst = 2 * c.Rate
	}
	return c
}

// Enabled reports whether quotas are armed at all.
func (c QuotaConfig) Enabled() bool { return c.Rate > 0 }

// tokenBucket is one tenant's refillable budget. Refill happens lazily
// from the elapsed time on the injected clock, so behavior is
// byte-reproducible under a virtual clock.
type tokenBucket struct {
	tokens float64
	last   time.Time
	rate   float64 // tokens per second
	burst  float64 // capacity
}

func (b *tokenBucket) refill(now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// take consumes one token if available; otherwise it reports how long
// until the next token accrues.
func (b *tokenBucket) take(now time.Time) (ok bool, wait time.Duration) {
	b.refill(now)
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := 1 - b.tokens
	return false, time.Duration(need / b.rate * float64(time.Second))
}

// put refunds one token (a request cancelled before it consumed any
// work gives its admission back).
func (b *tokenBucket) put() {
	b.tokens++
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// TenantQuotas is the per-tenant token-bucket table. Buckets are
// created lazily, full, on a tenant's first request.
type TenantQuotas struct {
	mu  sync.Mutex
	cfg QuotaConfig
	now func() time.Time
	m   map[string]*tokenBucket
}

// NewTenantQuotas builds the quota table; a nil now selects time.Now.
func NewTenantQuotas(cfg QuotaConfig, now func() time.Time) *TenantQuotas {
	if now == nil {
		now = time.Now
	}
	return &TenantQuotas{cfg: cfg.withDefaults(), now: now, m: make(map[string]*tokenBucket)}
}

// Enabled reports whether the table enforces anything.
func (q *TenantQuotas) Enabled() bool { return q != nil && q.cfg.Enabled() }

func (q *TenantQuotas) bucket(tenant string) *tokenBucket {
	b, ok := q.m[tenant]
	if !ok {
		b = &tokenBucket{tokens: q.cfg.Burst, last: q.now(), rate: q.cfg.Rate, burst: q.cfg.Burst}
		q.m[tenant] = b
	}
	return b
}

// TryTake consumes one admission token for tenant. When the bucket is
// empty it refuses and returns the time until the next token — the
// honest Retry-After for a quota rejection.
func (q *TenantQuotas) TryTake(tenant string) (ok bool, wait time.Duration) {
	if !q.Enabled() {
		return true, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.bucket(tenant).take(q.now())
}

// Refund returns one token to tenant (cancelled-while-queued requests
// never consumed compute, so their admission is given back).
func (q *TenantQuotas) Refund(tenant string) {
	if !q.Enabled() {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.bucket(tenant).put()
}

// Tokens returns tenant's current balance (for tests and gauges).
func (q *TenantQuotas) Tokens(tenant string) float64 {
	if !q.Enabled() {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.bucket(tenant)
	b.refill(q.now())
	return b.tokens
}

// admission is the one admission sequence, shared by the live
// scheduler and the deterministic tenant soak: breaker allow, quota
// take, lane push. The steps read the clock in that order, which the
// deterministic server's virtual clock depends on.
type admission struct {
	quotas   *TenantQuotas
	breakers *breakerSet
	fq       *fairQueue
	now      func() time.Time
}

// admit queues t in its tenant's FIFO within its priority lane,
// recording when it was admitted and whether it holds its breaker's
// half-open probe. A non-nil announce runs once t is queued, before a
// worker can claim it. On refusal admit returns the reason and the
// Retry-After hint, having given back everything it took: the probe
// and, for an untrusted admission, the quota token.
func (a *admission) admit(t *task, announce func()) (*fqEntry, string, time.Duration) {
	adm := t.adm
	ok, probe, wait := a.breakers.allow(adm.Tenant, adm.Class)
	if !ok {
		return nil, ReasonBreakerOpen, wait
	}
	t.probe = probe
	if !adm.Trusted {
		if ok, wait := a.quotas.TryTake(adm.Tenant); !ok {
			a.breakers.release(adm.Tenant, adm.Class, probe)
			return nil, ReasonQuota, wait
		}
	}
	t.admitted = a.now()
	e, res := a.fq.push(t, adm.Tenant, adm.Priority, announce)
	switch res {
	case pushFull:
		a.refund(t)
		return nil, ReasonQueueFull, ShedRetryAfter
	case pushClosed:
		a.refund(t)
		return nil, ReasonDraining, ShedRetryAfter
	}
	return e, "", 0
}

// refund gives back what an admitted task that never ran took: its
// breaker probe and, unless it was trusted (the router took its quota
// token upstream), its quota token.
func (a *admission) refund(t *task) {
	a.breakers.release(t.adm.Tenant, t.adm.Class, t.probe)
	if !t.adm.Trusted {
		a.quotas.Refund(t.adm.Tenant)
	}
}
