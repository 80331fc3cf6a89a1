// Package resilience runs attack/defense scenarios as supervised,
// restartable, deadline-bounded jobs — the process-manager layer the
// chaos campaign needs so a simulated SIGSEGV (an escaped *mem.Fault
// panic) becomes a structured crash record instead of taking the whole
// harness down, mirroring how the paper's victim processes die and dump
// core while the testbed carries on.
//
// A Supervisor provides, per job: panic recovery, a per-attempt
// deadline, bounded retry with exponential backoff, and a crash-loop
// breaker that stops launching work after too many consecutive dead
// jobs. Every attempt runs on the caller's goroutine and is joined,
// never abandoned: a deadline is cooperative, so a job stops at it only
// by watching its context. When some jobs die anyway, PartialTable
// degrades gracefully to a report.Table of what survived and what did
// not.
package resilience

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/mem"
	"repro/internal/report"
)

// Status is a job's final supervised state.
type Status string

// Job states.
const (
	// StatusOK: some attempt returned a value.
	StatusOK Status = "ok"
	// StatusFailed: every attempt crashed (panic or error).
	StatusFailed Status = "failed"
	// StatusTimeout: the final attempt exceeded its deadline.
	StatusTimeout Status = "timeout"
	// StatusSkipped: the crash-loop breaker was open; never launched.
	StatusSkipped Status = "breaker-skipped"
)

// Crash kinds recorded in CrashRecord.Kind.
const (
	CrashPanic   = "panic"
	CrashError   = "error"
	CrashTimeout = "timeout"
)

// CrashRecord is the structured core dump of one failed attempt.
type CrashRecord struct {
	Job     string `json:"job"`
	Attempt int    `json:"attempt"`
	// Kind is "panic", "error", or "timeout".
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// FaultKind/FaultAddr are set when the crash carried a *mem.Fault —
	// the simulated SIGSEGV's siginfo.
	FaultKind string `json:"fault_kind,omitempty"`
	FaultAddr uint64 `json:"fault_addr,omitempty"`
	// Restored and RestoreClean are set by recovery callbacks that roll
	// the crashed process image back to its pre-run checkpoint:
	// Restored means the rollback ran; RestoreClean means the
	// post-restore whole-image diff against the checkpoint was empty.
	Restored     bool `json:"restored,omitempty"`
	RestoreClean bool `json:"restore_clean,omitempty"`
}

// Job is one supervised unit of work.
type Job struct {
	// ID names the job in records and tables.
	ID string
	// Run executes one attempt on the goroutine that called
	// Supervisor.Run or Supervise. ctx ends at the attempt deadline; a
	// job that must stop there watches it. One that does not runs to
	// completion and is then recorded as a timeout.
	Run func(ctx context.Context, attempt int) (any, error)
	// OnCrash, when non-nil, is invoked after each crashed attempt with
	// the crash record, before any retry. Campaigns use it to restore
	// the process image from its checkpoint and annotate the record.
	// It is not called for timeouts: a timeout records that the attempt
	// overran its deadline, not that its process image died, so there
	// is nothing to roll back.
	OnCrash func(rec *CrashRecord)
}

// Policy tunes the supervisor. The zero value means: no deadline, three
// attempts, no backoff, breaker disabled.
type Policy struct {
	// Timeout is the per-attempt deadline (0 = none). The job sees it
	// through its ctx; an attempt that returns after it is a timeout.
	Timeout time.Duration
	// MaxAttempts bounds retries; zero selects 3.
	MaxAttempts int
	// Backoff is the delay before the second attempt; each further
	// retry multiplies it by BackoffFactor (default 2) up to MaxBackoff.
	Backoff       time.Duration
	BackoffFactor float64
	MaxBackoff    time.Duration
	// BreakerThreshold opens the crash-loop breaker after this many
	// consecutive dead jobs (0 = disabled). While open, jobs are
	// skipped rather than launched; a successful job closes it again.
	BreakerThreshold int
	// Sleep is the backoff clock, injectable for tests; nil = time.Sleep.
	Sleep func(time.Duration)
	// Observer, when non-nil, receives supervision lifecycle
	// notifications (the observability seam). Notifications are passive
	// and synchronous; implementations must not call back into the
	// supervisor.
	Observer Observer
}

// Observer receives supervision lifecycle notifications: the obs layer
// implements it to turn attempts into retry spans and crashes into
// metrics. All methods are invoked from the supervisor's goroutine, in
// deterministic order for deterministic job sequences.
type Observer interface {
	// AttemptStarted fires before each attempt (attempt is 1-based).
	AttemptStarted(job string, attempt int)
	// AttemptCrashed fires after a crashed attempt, once any OnCrash
	// recovery callback has annotated the record.
	AttemptCrashed(job string, rec CrashRecord)
	// JobFinished fires once per job with its final result, including
	// breaker-skipped jobs that never launched.
	JobFinished(res *Result)
}

func (p Policy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

func (p Policy) factor() float64 {
	if p.BackoffFactor <= 1 {
		return 2
	}
	return p.BackoffFactor
}

func (p Policy) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// BackoffSchedule returns the waits applied before attempts 2..n — the
// exponential schedule the policy implies, exposed for tests and docs.
func (p Policy) BackoffSchedule(n int) []time.Duration {
	var out []time.Duration
	d := p.Backoff
	for i := 2; i <= n; i++ {
		w := d
		if p.MaxBackoff > 0 && w > p.MaxBackoff {
			w = p.MaxBackoff
		}
		out = append(out, w)
		d = time.Duration(float64(d) * p.factor())
	}
	return out
}

// Result is a job's supervised outcome.
type Result struct {
	Job      string        `json:"job"`
	Status   Status        `json:"status"`
	Attempts int           `json:"attempts"`
	Crashes  []CrashRecord `json:"crashes,omitempty"`
	// Err is the final failure message for dead jobs.
	Err string `json:"error,omitempty"`
	// Value is the successful attempt's return value.
	Value any `json:"-"`
}

// Supervisor runs jobs under a Policy. It is meant for sequential use;
// the deterministic-campaign contract depends on jobs running one at a
// time in a fixed order.
type Supervisor struct {
	pol     Policy
	breaker *Breaker // crash-loop breaker over consecutive dead jobs
	results []*Result
}

// NewSupervisor builds a supervisor with the given policy.
func NewSupervisor(pol Policy) *Supervisor {
	// Cooldown 0: the supervisor's crash-loop breaker only closes again
	// when a job succeeds — the historical sequential-campaign contract.
	return &Supervisor{pol: pol, breaker: NewBreaker(pol.BreakerThreshold, 0, nil)}
}

// BreakerOpen reports whether the crash-loop breaker is currently open.
func (s *Supervisor) BreakerOpen() bool { return s.breaker.Open() }

// Results returns every result recorded so far, in run order.
func (s *Supervisor) Results() []*Result {
	out := make([]*Result, len(s.results))
	copy(out, s.results)
	return out
}

// Run executes job under the policy and records its result.
func (s *Supervisor) Run(job Job) *Result {
	res := s.run(job)
	s.results = append(s.results, res)
	return res
}

// run executes job under the policy without recording it.
func (s *Supervisor) run(job Job) *Result {
	res := &Result{Job: job.ID}
	if s.BreakerOpen() {
		res.Status = StatusSkipped
		res.Err = fmt.Sprintf("crash-loop breaker open after %d consecutive dead jobs", s.breaker.Consecutive())
		if s.pol.Observer != nil {
			s.pol.Observer.JobFinished(res)
		}
		return res
	}
	backoff := s.pol.Backoff
	max := s.pol.maxAttempts()
	for attempt := 1; attempt <= max; attempt++ {
		res.Attempts = attempt
		if attempt > 1 {
			w := backoff
			if s.pol.MaxBackoff > 0 && w > s.pol.MaxBackoff {
				w = s.pol.MaxBackoff
			}
			s.pol.sleep(w)
			backoff = time.Duration(float64(backoff) * s.pol.factor())
		}
		if s.pol.Observer != nil {
			s.pol.Observer.AttemptStarted(job.ID, attempt)
		}
		val, crash := s.attempt(job, attempt)
		if crash == nil {
			res.Status = StatusOK
			res.Value = val
			s.breaker.Success()
			if s.pol.Observer != nil {
				s.pol.Observer.JobFinished(res)
			}
			return res
		}
		res.Crashes = append(res.Crashes, *crash)
		rec := &res.Crashes[len(res.Crashes)-1]
		if job.OnCrash != nil && rec.Kind != CrashTimeout {
			job.OnCrash(rec)
		}
		if s.pol.Observer != nil {
			s.pol.Observer.AttemptCrashed(job.ID, *rec)
		}
	}
	last := res.Crashes[len(res.Crashes)-1]
	if last.Kind == CrashTimeout {
		res.Status = StatusTimeout
	} else {
		res.Status = StatusFailed
	}
	res.Err = last.Message
	s.breaker.Failure()
	if s.pol.Observer != nil {
		s.pol.Observer.JobFinished(res)
	}
	return res
}

// Supervise executes one job under pol on the calling goroutine and
// returns its result. Unlike a long-lived Supervisor — whose breaker
// and result log make it strictly sequential — Supervise shares
// nothing between calls, so it is safe to invoke from many goroutines
// at once. It is the serving layer's per-request supervision
// primitive: each request gets panic recovery and a structured crash
// record without any cross-request state.
func Supervise(job Job, pol Policy) *Result {
	// One job never meets the crash-loop breaker, so it gets none, and
	// nothing reads its result log, so it keeps none.
	return (&Supervisor{pol: pol}).run(job)
}

// RunAll executes jobs in order and returns their results.
func (s *Supervisor) RunAll(jobs []Job) []*Result {
	out := make([]*Result, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, s.Run(j))
	}
	return out
}

// attempt executes one attempt on the caller's goroutine with panic
// recovery, and returns only once the job has. An attempt that returns
// after its deadline is a timeout, whatever it returned.
func (s *Supervisor) attempt(job Job, attempt int) (val any, crash *CrashRecord) {
	ctx := context.Background()
	if s.pol.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.pol.Timeout)
		defer cancel()
	}
	defer func() {
		if pv := recover(); pv != nil {
			val, crash = nil, crashRecord(job.ID, attempt, CrashPanic, pv)
		}
		if ctx.Err() != nil {
			val, crash = nil, &CrashRecord{
				Job: job.ID, Attempt: attempt, Kind: CrashTimeout,
				Message: fmt.Sprintf("attempt exceeded deadline %s", s.pol.Timeout),
			}
		}
	}()
	val, err := job.Run(ctx, attempt)
	if err != nil {
		return nil, crashRecord(job.ID, attempt, CrashError, err)
	}
	return val, nil
}

// crashRecord turns a recovered panic value (CrashPanic) or a returned
// error (CrashError) into a crash record. One carrying a *mem.Fault —
// directly or wrapped — is the simulated SIGSEGV; its siginfo is
// preserved in the record.
func crashRecord(jobID string, attempt int, kind string, v any) *CrashRecord {
	rec := &CrashRecord{Job: jobID, Attempt: attempt, Kind: kind, Message: fmt.Sprint(v)}
	if err, ok := v.(error); ok {
		if f, ok := mem.IsFault(err); ok {
			rec.FaultKind, rec.FaultAddr = f.Kind.String(), uint64(f.Addr)
		}
	}
	return rec
}

// PartialTable renders results as a degraded report: every job gets a
// row whether it lived or died, so a campaign where some cells crash
// irrecoverably still yields the table for the rest.
func PartialTable(title string, results []*Result) *report.Table {
	t := report.NewTable(title, "job", "status", "attempts", "crashes", "last error")
	for _, r := range results {
		t.AddRow(r.Job, string(r.Status), strconv.Itoa(r.Attempts),
			strconv.Itoa(len(r.Crashes)), r.Err)
	}
	return t
}

// CountStatus tallies results by status.
func CountStatus(results []*Result) map[Status]int {
	out := make(map[Status]int)
	for _, r := range results {
		out[r.Status]++
	}
	return out
}
