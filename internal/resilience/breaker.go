package resilience

import (
	"sync"
	"time"
)

// Breaker is a consecutive-failure circuit breaker, extracted from the
// Supervisor's crash-loop logic so other layers (the serving tier's
// per-tenant scenario breakers) can reuse the same policy. It counts
// consecutive failures; at Threshold it opens and Allow refuses work.
// With a Cooldown it becomes a half-open breaker: once the cooldown
// has elapsed a single probe is allowed through, and its outcome either
// closes the breaker (success) or re-opens it for another cooldown
// (failure). With Cooldown zero the breaker stays open until an
// external Success — the Supervisor's historical behavior.
//
// All methods are safe for concurrent use. The clock is injectable so
// cooldown behavior is byte-reproducible under a virtual clock; a nil
// now falls back to time.Now.
type Breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    time.Duration
	now         func() time.Time
	consecutive int
	open        bool
	openedAt    time.Time
	probing     bool
}

// NewBreaker builds a breaker. threshold <= 0 disables it (Allow always
// true). cooldown 0 means an opened breaker only closes on Success.
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether a unit of work may proceed. While open it
// refuses, except that once the cooldown has elapsed it admits exactly
// one probe at a time; the probe's Success/Failure decides what happens
// next.
func (b *Breaker) Allow() bool {
	if b == nil || b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.probing {
		return false
	}
	if b.cooldown > 0 && b.now().Sub(b.openedAt) >= b.cooldown {
		b.probing = true
		return true
	}
	return false
}

// Success records a successful unit of work: the failure streak resets
// and the breaker closes.
func (b *Breaker) Success() {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.open = false
	b.probing = false
}

// Failure records a failed unit of work. At the threshold the breaker
// opens; a failed half-open probe re-opens it for a fresh cooldown.
func (b *Breaker) Failure() {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.probing || (!b.open && b.consecutive >= b.threshold) {
		b.open = true
		b.probing = false
		b.openedAt = b.now()
	}
}

// Release ends a half-open probe that gave no verdict (its work was
// cancelled or never ran). The breaker stays open with its cooldown
// spent, so the next Allow admits a fresh probe.
func (b *Breaker) Release() {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// Open reports whether the breaker currently refuses ordinary work.
func (b *Breaker) Open() bool {
	if b == nil || b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// Consecutive returns the current failure streak.
func (b *Breaker) Consecutive() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consecutive
}

// RemainingCooldown returns how long until an open breaker admits its
// next probe (0 when closed, probing, or cooldown-less).
func (b *Breaker) RemainingCooldown() time.Duration {
	if b == nil || b.threshold <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open || b.cooldown <= 0 || b.probing {
		return 0
	}
	rem := b.cooldown - b.now().Sub(b.openedAt)
	if rem < 0 {
		return 0
	}
	return rem
}
