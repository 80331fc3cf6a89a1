package service

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// requestOutcomes sums pn_serve_requests_total by outcome.
func requestOutcomes(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, p := range reg.Snapshot() {
		if p.Name != obs.MetricServeRequests {
			continue
		}
		for _, l := range p.Labels {
			if l.Key == "outcome" {
				out[l.Value] += p.Value
			}
		}
	}
	return out
}

// TestOverrunStopsAtNextIteration replays §4.4's unbounded work one
// layer up: 2 workers serve 16 sequential dos-exhaust requests, each
// asking for 256 iterations under a 2ms deadline. Every request must
// answer context.DeadlineExceeded, be counted once as a timeout, and
// stop running: every iteration acquires an image, so the pool goes
// quiet within a few iterations of the last answer, where a run that
// ignored its deadline would keep it busy for hundreds.
func TestOverrunStopsAtNextIteration(t *testing.T) {
	// One iteration's time as built and run here (-race makes it ~20x
	// slower): the slowest of three single runs.
	cal := New(Config{Workers: 1})
	t.Cleanup(cal.Drain)
	var iter time.Duration
	for i := 0; i < 3; i++ {
		res, _, err := cal.Handle(context.Background(), Request{Scenario: "dos-exhaust", NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		iter = max(iter, time.Duration(res.ComputeNS))
	}

	reg := obs.NewRegistry()
	s := New(Config{Workers: 2, QueueDepth: 32, Registry: reg})
	t.Cleanup(s.Drain)
	req := Request{Scenario: "dos-exhaust", Repeat: 256, DeadlineMS: 2, NoCache: true}
	for i := 0; i < 16; i++ {
		if _, _, err := s.Handle(context.Background(), req); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("request %d returned %v, want context.DeadlineExceeded", i, err)
		}
	}

	quiet, bound := max(8*iter, 100*time.Millisecond), max(32*iter, 300*time.Millisecond)
	last := time.Now()
	prev, changed := s.Pool().Stats(), last
	for time.Since(changed) < quiet {
		time.Sleep(quiet / 10)
		if cur := s.Pool().Stats(); cur != prev {
			prev, changed = cur, time.Now()
		}
		if d := changed.Sub(last); d > bound {
			t.Fatalf("image pool still changing %v after the last answer, one iteration being %v: runs outlived their requests", d, iter)
		}
	}

	s.Drain()
	if got := requestOutcomes(reg); len(got) != 1 || got["timeout"] != 16 {
		t.Fatalf("request outcomes = %v, want exactly 16 timeouts", got)
	}
}

// TestOverrunRunsBoundedByWorkers: a task that ignores its context
// keeps its worker until it returns, so with 2 workers and 8
// sequential requests whose 5ms deadlines pass mid-run, at most 2
// tasks ever run at once, and each request is counted once.
func TestOverrunRunsBoundedByWorkers(t *testing.T) {
	reg := obs.NewRegistry()
	describeServeMetrics(reg)
	s := NewScheduler(SchedulerConfig{Workers: 2, QueueDepth: 8, Metrics: reg})
	var running, peak atomic.Int64
	sleeper := func(context.Context) (any, error) {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(50 * time.Millisecond)
		running.Add(-1)
		return nil, nil
	}
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := s.Do(ctx, Admit{Priority: PriorityNormal, ID: "sleeper"}, sleeper)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("request %d returned %v, want context.DeadlineExceeded", i, err)
		}
	}
	s.Drain()
	s.Wait()
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrent runs = %d, want at most 2 (the worker count)", got)
	}
	if got := requestOutcomes(reg); len(got) != 1 || got["timeout"] != 8 {
		t.Fatalf("request outcomes = %v, want exactly 8 timeouts", got)
	}
}
