package resilience

import (
	"context"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for breaker cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(0, 0)} }

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(0, time.Second, nil)
	for i := 0; i < 10; i++ {
		b.Failure()
	}
	if !b.Allow() || b.Open() {
		t.Fatal("threshold 0 must disable the breaker")
	}
}

func TestBreakerOpensAtThresholdAndClosesOnSuccess(t *testing.T) {
	b := NewBreaker(3, 0, nil)
	b.Failure()
	b.Failure()
	if b.Open() || !b.Allow() {
		t.Fatalf("breaker open after 2/3 failures")
	}
	b.Failure()
	if !b.Open() || b.Allow() {
		t.Fatal("breaker not open after 3 consecutive failures")
	}
	if got := b.Consecutive(); got != 3 {
		t.Fatalf("consecutive = %d, want 3", got)
	}
	// Cooldown 0: stays open until an external success.
	if b.Allow() {
		t.Fatal("cooldown-less breaker admitted work while open")
	}
	b.Success()
	if b.Open() || !b.Allow() || b.Consecutive() != 0 {
		t.Fatal("success must close the breaker and reset the streak")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(2, 5*time.Second, clk.now)
	b.Failure()
	b.Failure()
	if !b.Open() {
		t.Fatal("breaker not open at threshold")
	}
	if b.Allow() {
		t.Fatal("breaker admitted work before the cooldown elapsed")
	}
	if rem := b.RemainingCooldown(); rem != 5*time.Second {
		t.Fatalf("remaining cooldown = %s, want 5s", rem)
	}
	clk.advance(5 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	// Only one probe at a time.
	if b.Allow() {
		t.Fatal("breaker admitted a second concurrent probe")
	}
	// Failed probe: re-opens for a fresh cooldown.
	b.Failure()
	if !b.Open() || b.Allow() {
		t.Fatal("failed probe must re-open the breaker")
	}
	clk.advance(5 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the second probe after the fresh cooldown")
	}
	// Successful probe closes it.
	b.Success()
	if b.Open() || !b.Allow() {
		t.Fatal("successful probe must close the breaker")
	}
}

// TestBreakerReleasedProbe: a probe released without a verdict leaves
// the breaker open, and the next Allow admits a fresh probe at once —
// the cooldown is not restarted.
func TestBreakerReleasedProbe(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(1, 5*time.Second, clk.now)
	b.Failure()
	clk.advance(5 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	b.Release()
	if !b.Open() {
		t.Fatal("releasing a probe closed the breaker")
	}
	if !b.Allow() {
		t.Fatal("breaker refused a fresh probe after the first was released")
	}
	if b.Allow() {
		t.Fatal("breaker admitted a second concurrent probe")
	}
}

// TestSupervisorBreakerUnchanged pins the Supervisor's crash-loop
// behavior across the Breaker extraction: open after N consecutive
// dead jobs, skip while open, stay open until an external success.
func TestSupervisorBreakerUnchanged(t *testing.T) {
	s := NewSupervisor(Policy{MaxAttempts: 1, BreakerThreshold: 2})
	fail := func(id string) Job {
		return Job{ID: id, Run: func(ctx context.Context, attempt int) (any, error) {
			panic("boom")
		}}
	}
	if r := s.Run(fail("a")); r.Status != StatusFailed {
		t.Fatalf("job a status = %s, want failed", r.Status)
	}
	if s.BreakerOpen() {
		t.Fatal("breaker open after one dead job, threshold 2")
	}
	if r := s.Run(fail("b")); r.Status != StatusFailed {
		t.Fatalf("job b status = %s, want failed", r.Status)
	}
	if !s.BreakerOpen() {
		t.Fatal("breaker not open after two consecutive dead jobs")
	}
	r := s.Run(Job{ID: "c", Run: func(ctx context.Context, attempt int) (any, error) {
		return 1, nil
	}})
	if r.Status != StatusSkipped {
		t.Fatalf("job c status = %s, want breaker-skipped", r.Status)
	}
	if r.Err == "" {
		t.Fatal("skipped job must explain the open breaker")
	}
}
