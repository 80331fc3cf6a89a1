package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// occupyWorker parks the scheduler's single worker on a task until
// release is closed.
func occupyWorker(t *testing.T, s *Scheduler, tenant string) (release chan struct{}, done chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	done = make(chan struct{})
	running := make(chan struct{})
	go func() {
		defer close(done)
		s.Do(context.Background(), Admit{Tenant: tenant, Priority: PriorityNormal, ID: "blocker"},
			func(ctx context.Context) (any, error) {
				close(running)
				<-release
				return nil, nil
			})
	}()
	select {
	case <-running:
	case <-time.After(2 * time.Second):
		t.Fatal("blocker never started")
	}
	return release, done
}

// TestCancelledQueuedReleasesQuota is the no-leak contract, exercised
// under every lane: a request cancelled while queued gives back its
// fairness-queue slot and its quota token.
func TestCancelledQueuedReleasesQuota(t *testing.T) {
	for _, lane := range []Priority{PriorityHigh, PriorityNormal, PriorityLow} {
		t.Run(lane.String(), func(t *testing.T) {
			clk := newAdmissionClock()
			s := NewScheduler(SchedulerConfig{
				Workers:    1,
				QueueDepth: 4,
				Quota:      QuotaConfig{Rate: 100, Burst: 3},
				Now:        clk.Now, // frozen: no refill, so token counts are exact
			})
			release, blockerDone := occupyWorker(t, s, "acme")
			// Blocker holds one token.
			if got := s.Quotas().Tokens("acme"); got != 2 {
				t.Fatalf("tokens with blocker running = %g, want 2", got)
			}

			ctx, cancel := context.WithCancel(context.Background())
			result := make(chan error, 1)
			go func() {
				_, err := s.Do(ctx, Admit{Tenant: "acme", Priority: lane, ID: "victim"},
					func(ctx context.Context) (any, error) { return nil, nil })
				result <- err
			}()
			deadline := time.After(2 * time.Second)
			for s.QueueLen(lane) == 0 {
				select {
				case <-deadline:
					t.Fatal("victim never queued")
				default:
					time.Sleep(time.Millisecond)
				}
			}
			if got := s.Quotas().Tokens("acme"); got != 1 {
				t.Fatalf("tokens with victim queued = %g, want 1", got)
			}

			cancel()
			select {
			case err := <-result:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Do returned %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("cancelled request did not return")
			}
			if got := s.QueueLen(lane); got != 0 {
				t.Fatalf("lane depth after cancel = %d, want 0 (slot leaked)", got)
			}
			if got := s.Quotas().Tokens("acme"); got != 2 {
				t.Fatalf("tokens after cancel = %g, want 2 (token leaked)", got)
			}

			close(release)
			<-blockerDone
			s.Drain()
			s.Wait()
		})
	}
}

// TestDrainConcurrentWithAdmission races Drain against a burst of
// admissions: every Do must return (a value, a Rejection, or a ctx
// error) and the scheduler must quiesce. Run under -race in CI.
func TestDrainConcurrentWithAdmission(t *testing.T) {
	s := NewScheduler(SchedulerConfig{
		Workers:    2,
		QueueDepth: 8,
		Quota:      QuotaConfig{Rate: 1e6, Burst: 1e6},
	})
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := s.Do(context.Background(), Admit{Priority: PriorityNormal, ID: "racer"},
				func(ctx context.Context) (any, error) { return 1, nil })
			if err != nil {
				var rej *Rejection
				if !errors.As(err, &rej) {
					t.Errorf("Do returned %v, want nil or *Rejection", err)
				}
			}
		}()
	}
	close(start)
	s.Drain()
	wg.Wait()
	s.Wait()
}

// TestQuotaRejection: an out-of-tokens tenant is shed with the quota
// reason and an honest refill-schedule hint, without affecting other
// tenants.
func TestQuotaRejection(t *testing.T) {
	clk := newAdmissionClock()
	s := NewScheduler(SchedulerConfig{
		Workers:    1,
		QueueDepth: 4,
		Quota:      QuotaConfig{Rate: 10, Burst: 1},
		Now:        clk.Now,
	})
	defer func() { s.Drain(); s.Wait() }()

	if _, err := s.Do(context.Background(), Admit{Tenant: "greedy", Priority: PriorityNormal, ID: "one"},
		func(ctx context.Context) (any, error) { return nil, nil }); err != nil {
		t.Fatalf("first request rejected: %v", err)
	}
	_, err := s.Do(context.Background(), Admit{Tenant: "greedy", Priority: PriorityNormal, ID: "two"},
		func(ctx context.Context) (any, error) {
			t.Error("quota-rejected request executed")
			return nil, nil
		})
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Reason != ReasonQuota || rej.Code != 429 {
		t.Fatalf("second request returned %v, want 429 quota Rejection", err)
	}
	if rej.Tenant != "greedy" {
		t.Fatalf("rejection tenant = %q, want greedy", rej.Tenant)
	}
	if rej.RetryAfterMS != 100 {
		t.Fatalf("quota RetryAfterMS = %d, want 100 (1 token at 10/s)", rej.RetryAfterMS)
	}
	// Another tenant is untouched.
	if _, err := s.Do(context.Background(), Admit{Tenant: "polite", Priority: PriorityNormal, ID: "three"},
		func(ctx context.Context) (any, error) { return nil, nil }); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
}

// TestBreakerIsolatesTenantAndClass: repeated execution deaths open the
// breaker for that (tenant, class) only; other tenants and the same
// tenant's other classes keep flowing, and the cooldown admits a probe
// that can close it again.
func TestBreakerIsolatesTenantAndClass(t *testing.T) {
	clk := newAdmissionClock()
	s := NewScheduler(SchedulerConfig{
		Workers:    2,
		QueueDepth: 8,
		Breaker:    BreakerConfig{Threshold: 2, Cooldown: time.Second},
		Now:        clk.Now,
	})
	defer func() { s.Drain(); s.Wait() }()

	boom := func(ctx context.Context) (any, error) { panic("simulated SIGSEGV") }
	fine := func(ctx context.Context) (any, error) { return "ok", nil }
	adm := Admit{Tenant: "acme", Priority: PriorityNormal, Class: "scenario/stack-ret", ID: "scenario/stack-ret"}

	for i := 0; i < 2; i++ {
		var exe *ExecError
		if _, err := s.Do(context.Background(), adm, boom); !errors.As(err, &exe) {
			t.Fatalf("crash %d returned %v, want *ExecError", i, err)
		}
	}
	if !s.BreakerOpen("acme", "scenario/stack-ret") {
		t.Fatal("breaker not open after threshold deaths")
	}
	_, err := s.Do(context.Background(), adm, fine)
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Reason != ReasonBreakerOpen || rej.Code != 503 {
		t.Fatalf("open-breaker Do returned %v, want 503 breaker_open Rejection", err)
	}
	if rej.RetryAfterMS <= 0 || rej.RetryAfterMS > 1000 {
		t.Fatalf("breaker RetryAfterMS = %d, want (0, 1000]", rej.RetryAfterMS)
	}

	// Same class, different tenant: unaffected. Same tenant, other
	// class: also unaffected.
	other := adm
	other.Tenant = "umbrella"
	if _, err := s.Do(context.Background(), other, fine); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	otherClass := adm
	otherClass.Class, otherClass.ID = "scenario/bss-overflow", "scenario/bss-overflow"
	if _, err := s.Do(context.Background(), otherClass, fine); err != nil {
		t.Fatalf("other class rejected: %v", err)
	}

	// After the cooldown a probe is admitted; its success closes the
	// breaker.
	clk.Advance(1100 * time.Millisecond)
	if _, err := s.Do(context.Background(), adm, fine); err != nil {
		t.Fatalf("post-cooldown probe rejected: %v", err)
	}
	if s.BreakerOpen("acme", "scenario/stack-ret") {
		t.Fatal("breaker still open after a successful probe")
	}
}

// TestBreakerProbeWithoutVerdictIsReleased: a half-open probe whose
// request ends without a verdict — cancelled during its run, cancelled
// while queued, or shed by its quota after the breaker admitted it —
// must not leave the breaker waiting on it for good: once the workers
// are done, the breaker admits the next request as a fresh probe.
func TestBreakerProbeWithoutVerdictIsReleased(t *testing.T) {
	boom := func(context.Context) (any, error) { panic("simulated SIGSEGV") }
	fine := func(context.Context) (any, error) { return "ok", nil }
	adm := Admit{Tenant: "acme", Priority: PriorityNormal, Class: "scenario/stack-ret", ID: "scenario/stack-ret"}

	// open builds a 1-worker scheduler whose acme breaker is open with
	// its cooldown spent, so the next acme request is the probe.
	open := func(t *testing.T, quota QuotaConfig) *Scheduler {
		clk := newAdmissionClock()
		s := NewScheduler(SchedulerConfig{
			Workers:    1,
			QueueDepth: 4,
			Breaker:    BreakerConfig{Threshold: 1, Cooldown: time.Second},
			Quota:      quota,
			Now:        clk.Now,
		})
		var exe *ExecError
		if _, err := s.Do(context.Background(), adm, boom); !errors.As(err, &exe) {
			t.Fatalf("crash returned %v, want *ExecError", err)
		}
		clk.Advance(1100 * time.Millisecond)
		return s
	}
	// released waits for the worker to finish with the probe, then
	// asserts the breaker admits the next request as a fresh probe.
	released := func(t *testing.T, s *Scheduler) {
		s.Drain()
		s.Wait()
		if ok, probe, _ := s.breakers.allow(adm.Tenant, adm.Class); !ok || !probe {
			t.Fatalf("after the probe: allow = %v, probe = %v; want the next request admitted as a fresh probe", ok, probe)
		}
	}

	t.Run("canceled-during-run", func(t *testing.T) {
		s := open(t, QuotaConfig{})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err := s.Do(ctx, adm, func(ctx context.Context) (any, error) {
			cancel()
			<-ctx.Done()
			return "ok", nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("probe returned %v, want context.Canceled", err)
		}
		released(t, s)
	})
	t.Run("canceled-while-queued", func(t *testing.T) {
		s := open(t, QuotaConfig{})
		release, blockerDone := occupyWorker(t, s, "umbrella")
		ctx, cancel := context.WithCancel(context.Background())
		result := make(chan error, 1)
		go func() {
			_, err := s.Do(ctx, adm, fine)
			result <- err
		}()
		deadline := time.Now().Add(2 * time.Second)
		for s.QueueLen(PriorityNormal) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("probe never queued")
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		if err := <-result; !errors.Is(err, context.Canceled) {
			t.Fatalf("probe returned %v, want context.Canceled", err)
		}
		close(release)
		<-blockerDone
		released(t, s)
	})
	t.Run("shed-by-quota", func(t *testing.T) {
		// Burst 1: the crash spends the only token, and 1.1s at 0.1/s
		// does not refill it.
		s := open(t, QuotaConfig{Rate: 0.1, Burst: 1})
		var rej *Rejection
		if _, err := s.Do(context.Background(), adm, fine); !errors.As(err, &rej) || rej.Reason != ReasonQuota {
			t.Fatalf("probe returned %v, want a quota rejection", err)
		}
		released(t, s)
	})
}

// TestAgingDefeatsPriorityStarvation at the scheduler level: a low
// request stuck behind a continuous high-priority stream is eventually
// served via promotion.
func TestAgingDefeatsPriorityStarvation(t *testing.T) {
	s := NewScheduler(SchedulerConfig{
		Workers:        1,
		QueueDepth:     16,
		AgingThreshold: 20 * time.Millisecond,
	})
	release, blockerDone := occupyWorker(t, s, "")

	lowServed := make(chan struct{})
	go s.Do(context.Background(), Admit{Priority: PriorityLow, ID: "starver"},
		func(ctx context.Context) (any, error) { close(lowServed); return nil, nil })
	deadline := time.After(2 * time.Second)
	for s.QueueLen(PriorityLow) == 0 {
		select {
		case <-deadline:
			t.Fatal("low request never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// Let the low entry age past the threshold while a fresh high
	// request arrives, then free the worker.
	time.Sleep(30 * time.Millisecond)
	go s.Do(context.Background(), Admit{Priority: PriorityHigh, ID: "fresh"},
		func(ctx context.Context) (any, error) { return nil, nil })
	for s.QueueLen(PriorityHigh) == 0 {
		select {
		case <-deadline:
			t.Fatal("high request never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	<-blockerDone
	select {
	case <-lowServed:
	case <-time.After(2 * time.Second):
		t.Fatal("aged low-priority request was starved")
	}
	s.Drain()
	s.Wait()
	if s.AgedPromotions() == 0 {
		t.Fatal("no aging promotion recorded")
	}
}
