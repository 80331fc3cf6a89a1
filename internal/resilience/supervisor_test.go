package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
)

func TestRunSucceedsFirstAttempt(t *testing.T) {
	s := NewSupervisor(Policy{})
	res := s.Run(Job{ID: "ok", Run: func(ctx context.Context, attempt int) (any, error) {
		return 7, nil
	}})
	if res.Status != StatusOK || res.Attempts != 1 || res.Value.(int) != 7 {
		t.Fatalf("result = %+v", res)
	}
}

func TestPanicWithFaultBecomesCrashRecord(t *testing.T) {
	f := &mem.Fault{Kind: mem.FaultUnmapped, Addr: 0x80a0000, Size: 4}
	s := NewSupervisor(Policy{MaxAttempts: 2})
	recovered := 0
	res := s.Run(Job{
		ID: "segv",
		Run: func(ctx context.Context, attempt int) (any, error) {
			if attempt == 1 {
				panic(f) // the simulated SIGSEGV
			}
			return "recovered", nil
		},
		OnCrash: func(rec *CrashRecord) { recovered++; rec.Restored = true },
	})
	if res.Status != StatusOK || res.Attempts != 2 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Crashes) != 1 {
		t.Fatalf("crashes = %v", res.Crashes)
	}
	c := res.Crashes[0]
	if c.Kind != CrashPanic || c.FaultKind != "unmapped" || c.FaultAddr != 0x80a0000 {
		t.Fatalf("crash record = %+v, want structured SIGSEGV siginfo", c)
	}
	if recovered != 1 || !c.Restored {
		t.Fatalf("OnCrash not invoked or annotation lost: %+v", c)
	}
}

func TestErrorWrappingFaultIsAnnotated(t *testing.T) {
	f := &mem.Fault{Kind: mem.FaultPerm, Addr: 0x1234, Size: 1, Want: mem.PermWrite}
	s := NewSupervisor(Policy{MaxAttempts: 1})
	res := s.Run(Job{ID: "werr", Run: func(ctx context.Context, attempt int) (any, error) {
		return nil, fmt.Errorf("scenario: %w", errors.Join(errors.New("noise"), f))
	}})
	if res.Status != StatusFailed {
		t.Fatalf("status = %s", res.Status)
	}
	if res.Crashes[0].FaultKind != "permission" {
		t.Fatalf("fault not extracted through join: %+v", res.Crashes[0])
	}
}

func TestBoundedRetryExhausts(t *testing.T) {
	s := NewSupervisor(Policy{MaxAttempts: 3})
	runs := 0
	res := s.Run(Job{ID: "dead", Run: func(ctx context.Context, attempt int) (any, error) {
		runs++
		return nil, errors.New("always broken")
	}})
	if res.Status != StatusFailed || res.Attempts != 3 || runs != 3 {
		t.Fatalf("result = %+v after %d runs", res, runs)
	}
	if res.Err != "always broken" {
		t.Fatalf("final error = %q", res.Err)
	}
}

func TestExponentialBackoffSchedule(t *testing.T) {
	var slept []time.Duration
	pol := Policy{
		MaxAttempts: 4,
		Backoff:     10 * time.Millisecond,
		MaxBackoff:  25 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	s := NewSupervisor(pol)
	s.Run(Job{ID: "backoff", Run: func(ctx context.Context, attempt int) (any, error) {
		return nil, errors.New("no")
	}})
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
	// The schedule helper agrees with what the supervisor actually did.
	sched := pol.BackoffSchedule(4)
	for i := range want {
		if sched[i] != want[i] {
			t.Fatalf("BackoffSchedule = %v, want %v", sched, want)
		}
	}
}

func TestDeadlineTimesOutWedgedJob(t *testing.T) {
	s := NewSupervisor(Policy{Timeout: 30 * time.Millisecond, MaxAttempts: 1})
	release := make(chan struct{})
	defer close(release)
	onCrashCalls := 0
	start := time.Now()
	res := s.Run(Job{
		ID: "wedged",
		Run: func(ctx context.Context, attempt int) (any, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		},
		OnCrash: func(rec *CrashRecord) { onCrashCalls++ },
	})
	if res.Status != StatusTimeout {
		t.Fatalf("status = %s", res.Status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("supervisor hung %v on a wedged job", elapsed)
	}
	if onCrashCalls != 0 {
		t.Fatal("OnCrash ran for a timeout — the attempt may still own its state")
	}
}

func TestCrashLoopBreaker(t *testing.T) {
	s := NewSupervisor(Policy{MaxAttempts: 1, BreakerThreshold: 2})
	die := Job{ID: "d", Run: func(ctx context.Context, attempt int) (any, error) {
		return nil, errors.New("boom")
	}}
	s.Run(die)
	s.Run(die)
	if !s.BreakerOpen() {
		t.Fatal("breaker closed after threshold consecutive dead jobs")
	}
	launched := false
	res := s.Run(Job{ID: "skipped", Run: func(ctx context.Context, attempt int) (any, error) {
		launched = true
		return nil, nil
	}})
	if res.Status != StatusSkipped || launched {
		t.Fatalf("breaker did not skip: %+v launched=%v", res, launched)
	}
	if got := CountStatus(s.Results()); got[StatusFailed] != 2 || got[StatusSkipped] != 1 {
		t.Fatalf("status counts = %v", got)
	}
}

func TestBreakerClosesOnSuccess(t *testing.T) {
	s := NewSupervisor(Policy{MaxAttempts: 1, BreakerThreshold: 3})
	die := Job{ID: "d", Run: func(ctx context.Context, attempt int) (any, error) {
		return nil, errors.New("boom")
	}}
	ok := Job{ID: "ok", Run: func(ctx context.Context, attempt int) (any, error) { return 1, nil }}
	s.Run(die)
	s.Run(die)
	s.Run(ok) // resets the consecutive counter
	s.Run(die)
	s.Run(die)
	if s.BreakerOpen() {
		t.Fatal("breaker open despite intervening success")
	}
}

func TestPartialTableDegradesGracefully(t *testing.T) {
	s := NewSupervisor(Policy{MaxAttempts: 1, BreakerThreshold: 1})
	results := s.RunAll([]Job{
		{ID: "alive", Run: func(ctx context.Context, attempt int) (any, error) { return 1, nil }},
		{ID: "dead", Run: func(ctx context.Context, attempt int) (any, error) { return nil, errors.New("x") }},
		{ID: "after", Run: func(ctx context.Context, attempt int) (any, error) { return 2, nil }},
	})
	tb := PartialTable("partial", results)
	if tb.NumRows() != 3 {
		t.Fatalf("partial table rows = %d, want every job reported", tb.NumRows())
	}
	out := tb.String()
	for _, want := range []string{"alive", "dead", "after", "breaker-skipped", "ok", "failed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("partial table missing %q:\n%s", want, out)
		}
	}
}

// TestTimedOutAttemptIsJoined: an attempt that ignores its context and
// returns 20ms after its deadline is waited for, not abandoned, so by
// the time Run reports the timeout the job has returned.
func TestTimedOutAttemptIsJoined(t *testing.T) {
	const timeout = 10 * time.Millisecond
	var returned atomic.Bool
	res := NewSupervisor(Policy{Timeout: timeout, MaxAttempts: 1}).Run(Job{
		ID: "overrun",
		Run: func(ctx context.Context, attempt int) (any, error) {
			time.Sleep(timeout + 20*time.Millisecond)
			returned.Store(true)
			return "late", nil
		},
	})
	if res.Status != StatusTimeout || len(res.Crashes) != 1 || res.Crashes[0].Kind != CrashTimeout {
		t.Fatalf("result = %+v, want one timeout crash", res)
	}
	if want := "attempt exceeded deadline 10ms"; res.Err != want {
		t.Fatalf("final error = %q, want %q", res.Err, want)
	}
	if !returned.Load() {
		t.Fatal("Run reported the timeout while the attempt was still running")
	}
}
