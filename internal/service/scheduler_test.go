package service

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// blockWorker occupies the pool's single worker until release is
// closed, and signals once it is running.
func blockWorker(t *testing.T, s *Scheduler) (release chan struct{}, done chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	done = make(chan struct{})
	running := make(chan struct{})
	go func() {
		defer close(done)
		s.Do(context.Background(), Admit{Priority: PriorityNormal, ID: "blocker"}, func(ctx context.Context) (any, error) {
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

// TestCancelledQueuedRequestNeverExecutes is the satellite contract:
// deadlines/cancellation stop queued (not yet running) work — a
// request cancelled while waiting in the admission queue is completed
// with ctx.Err() and its function is never invoked.
func TestCancelledQueuedRequestNeverExecutes(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 4})
	release, blockerDone := blockWorker(t, s)

	var executed atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	result := make(chan error, 1)
	go func() {
		_, err := s.Do(ctx, Admit{Priority: PriorityNormal, ID: "victim"}, func(ctx context.Context) (any, error) {
			executed.Store(true)
			return nil, nil
		})
		result <- err
	}()

	// Wait until the victim is queued behind the blocker, then cancel it.
	deadline := time.After(2 * time.Second)
	for s.QueueLen(PriorityNormal) == 0 {
		select {
		case <-deadline:
			t.Fatal("victim never queued")
		default:
			time.Sleep(time.Millisecond)
		}
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

	// Let the worker drain the queue; the cancelled task must be skipped.
	close(release)
	<-blockerDone
	s.Drain()
	s.Wait()
	if executed.Load() {
		t.Fatal("cancelled queued request executed anyway")
	}
}

// TestQueueFullSheds: admission is non-blocking; a full lane rejects
// with a structured 429 Rejection instead of queueing unboundedly.
func TestQueueFullSheds(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 1})
	release, blockerDone := blockWorker(t, s)
	defer func() { close(release); <-blockerDone; s.Drain(); s.Wait() }()

	// Fill the lane's single slot.
	queued := make(chan struct{}, 1)
	go s.Do(context.Background(), Admit{Priority: PriorityNormal, ID: "queued"}, func(ctx context.Context) (any, error) {
		queued <- struct{}{}
		return nil, nil
	})
	deadline := time.After(2 * time.Second)
	for s.QueueLen(PriorityNormal) == 0 {
		select {
		case <-deadline:
			t.Fatal("filler never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	_, err := s.Do(context.Background(), Admit{Priority: PriorityNormal, ID: "shed-me"}, func(ctx context.Context) (any, error) {
		t.Error("shed request executed")
		return nil, nil
	})
	var rej *Rejection
	if !errors.As(err, &rej) {
		t.Fatalf("Do returned %v, want *Rejection", err)
	}
	if rej.Code != 429 || rej.Reason != ReasonQueueFull {
		t.Fatalf("rejection = %+v, want code 429 reason queue_full", rej)
	}
	if rej.Lane != "normal" || rej.QueueCap != 1 {
		t.Fatalf("rejection lane/cap = %s/%d, want normal/1", rej.Lane, rej.QueueCap)
	}
}

// TestDrainRejectsWith503: after Drain every admission attempt is
// refused with the draining rejection.
func TestDrainRejectsWith503(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 1})
	s.Drain()
	s.Wait()
	_, err := s.Do(context.Background(), Admit{Priority: PriorityHigh, ID: "late"}, func(ctx context.Context) (any, error) {
		return nil, nil
	})
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Code != 503 || rej.Reason != ReasonDraining {
		t.Fatalf("Do after Drain returned %v, want 503 draining Rejection", err)
	}
}

// TestPanicDegradesToExecError: a panicking workload (the simulated
// SIGSEGV) costs that one request, not the process.
func TestPanicDegradesToExecError(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, QueueDepth: 4})
	defer func() { s.Drain(); s.Wait() }()

	_, err := s.Do(context.Background(), Admit{Priority: PriorityNormal, ID: "crasher"}, func(ctx context.Context) (any, error) {
		panic("simulated SIGSEGV")
	})
	var exe *ExecError
	if !errors.As(err, &exe) {
		t.Fatalf("Do returned %v, want *ExecError", err)
	}
	if exe.Status != resilience.StatusFailed || len(exe.Crashes) != 1 || exe.Crashes[0].Kind != resilience.CrashPanic {
		t.Fatalf("ExecError = %+v, want one panic crash with status failed", exe)
	}

	// The pool survives: the next request is served normally.
	v, err := s.Do(context.Background(), Admit{Priority: PriorityNormal, ID: "after"}, func(ctx context.Context) (any, error) {
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("request after crash = (%v, %v), want (42, nil)", v, err)
	}
}

// TestPriorityLanePreference: with both lanes populated while the
// worker is busy, the high lane is served first.
func TestPriorityLanePreference(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 4})
	release, blockerDone := blockWorker(t, s)

	order := make(chan string, 2)
	submit := func(pri Priority, name string) {
		go s.Do(context.Background(), Admit{Priority: pri, ID: name}, func(ctx context.Context) (any, error) {
			order <- name
			return nil, nil
		})
	}
	submit(PriorityLow, "low")
	deadline := time.After(2 * time.Second)
	for s.QueueLen(PriorityLow) == 0 {
		select {
		case <-deadline:
			t.Fatal("low never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	submit(PriorityHigh, "high")
	for s.QueueLen(PriorityHigh) == 0 {
		select {
		case <-deadline:
			t.Fatal("high never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	close(release)
	<-blockerDone
	first := <-order
	second := <-order
	if first != "high" || second != "low" {
		t.Fatalf("execution order = %s, %s; want high before low", first, second)
	}
	s.Drain()
	s.Wait()
}

// TestServeLatencyKeepsFractionalMilliseconds: a task that runs for
// 400µs records 0.4 ms in pn_serve_latency_ms, in the le="1" bucket.
// Truncating to whole milliseconds recorded every sub-millisecond run
// as 0.
func TestServeLatencyKeepsFractionalMilliseconds(t *testing.T) {
	clk := newAdmissionClock()
	reg := obs.NewRegistry()
	describeServeMetrics(reg)
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 4, Now: clk.Now, Metrics: reg})
	if _, err := s.Do(context.Background(), Admit{Priority: PriorityNormal, ID: "timed"}, func(ctx context.Context) (any, error) {
		clk.Advance(400 * time.Microsecond)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	s.Wait()
	exp := reg.Exposition()
	for _, want := range []string{
		obs.MetricServeLatency + `_bucket{lane="normal",le="1"} 1`,
		obs.MetricServeLatency + `_sum{lane="normal"} 0.4`,
		obs.MetricServeLatency + `_count{lane="normal"} 1`,
	} {
		if !strings.Contains(exp, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, exp)
		}
	}
}
