package service

import (
	"sync"
	"time"

	"repro/internal/resilience"
)

// BreakerConfig tunes the per-tenant, per-scenario-class circuit
// breakers. The zero value disables them.
type BreakerConfig struct {
	// Threshold opens a (tenant, class) breaker after this many
	// consecutive execution failures (panics, chaos-fault deaths,
	// timeouts). 0 disables.
	Threshold int
	// Cooldown is how long an open breaker fast-fails before admitting
	// a half-open probe (default 2s).
	Cooldown time.Duration
	// OnEvent, when non-nil, observes breaker lifecycle events
	// ("open", "close", "probe") — the metrics seam.
	OnEvent func(event, tenant, class string)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold > 0 && c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	return c
}

// breakerSet holds one resilience.Breaker per (tenant, scenario
// class): a scenario that repeatedly panics or dies to its chaos
// overlay gets fast-failed for that tenant only — other tenants, and
// the same tenant's healthy scenario classes, are untouched.
type breakerSet struct {
	mu  sync.Mutex
	cfg BreakerConfig
	now func() time.Time
	m   map[breakerKey]*resilience.Breaker
}

type breakerKey struct{ tenant, class string }

func newBreakerSet(cfg BreakerConfig, now func() time.Time) *breakerSet {
	if now == nil {
		now = time.Now
	}
	return &breakerSet{cfg: cfg.withDefaults(), now: now, m: make(map[breakerKey]*resilience.Breaker)}
}

func (bs *breakerSet) enabled() bool { return bs != nil && bs.cfg.Threshold > 0 }

func (bs *breakerSet) breaker(tenant, class string) *resilience.Breaker {
	key := breakerKey{tenant, class}
	b, ok := bs.m[key]
	if !ok {
		b = resilience.NewBreaker(bs.cfg.Threshold, bs.cfg.Cooldown, bs.now)
		bs.m[key] = b
	}
	return b
}

// allow reports whether (tenant, class) may execute and whether the
// request is the open breaker's half-open probe; when refused it also
// returns the remaining cooldown for the Retry-After hint.
func (bs *breakerSet) allow(tenant, class string) (ok, probe bool, wait time.Duration) {
	if !bs.enabled() {
		return true, false, 0
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.breaker(tenant, class)
	wasOpen := b.Open()
	if b.Allow() {
		if wasOpen && bs.cfg.OnEvent != nil {
			bs.cfg.OnEvent("probe", tenant, class)
		}
		return true, wasOpen, 0
	}
	rem := b.RemainingCooldown()
	if rem <= 0 {
		rem = bs.cfg.Cooldown
	}
	return false, false, rem
}

// release ends (tenant, class)'s half-open probe when the request that
// holds it ends with no verdict, so the next request probes again. It
// does nothing unless probe is set: a non-probe cannot free another's.
func (bs *breakerSet) release(tenant, class string, probe bool) {
	if !probe || !bs.enabled() {
		return
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	bs.breaker(tenant, class).Release()
}

// success records a clean execution for (tenant, class).
func (bs *breakerSet) success(tenant, class string) {
	if !bs.enabled() {
		return
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.breaker(tenant, class)
	wasOpen := b.Open()
	b.Success()
	if wasOpen && bs.cfg.OnEvent != nil {
		bs.cfg.OnEvent("close", tenant, class)
	}
}

// failure records a dead execution for (tenant, class).
func (bs *breakerSet) failure(tenant, class string) {
	if !bs.enabled() {
		return
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.breaker(tenant, class)
	wasOpen := b.Open()
	b.Failure()
	if !wasOpen && b.Open() && bs.cfg.OnEvent != nil {
		bs.cfg.OnEvent("open", tenant, class)
	}
}

// open reports whether (tenant, class) is currently fast-failing.
func (bs *breakerSet) open(tenant, class string) bool {
	if !bs.enabled() {
		return false
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.breaker(tenant, class).Open()
}
