package service

import (
	"fmt"

	"repro/internal/resilience"
)

// BadRequest is a request the service refuses to schedule: unknown
// experiment/scenario/defense/model, contradictory fields, malformed
// knobs. It maps to HTTP 400.
type BadRequest struct {
	Reason string
}

func (e *BadRequest) Error() string { return "service: bad request: " + e.Reason }

func badRequestf(format string, args ...any) *BadRequest {
	return &BadRequest{Reason: fmt.Sprintf(format, args...)}
}

// Rejection reasons: the machine-readable enum clients use to
// distinguish shed causes.
const (
	// ReasonQuota: the tenant's token bucket is empty (429).
	ReasonQuota = "quota"
	// ReasonQueueFull: the priority lane is at capacity (429).
	ReasonQueueFull = "queue_full"
	// ReasonBreakerOpen: this tenant's scenario class is fast-failing
	// after repeated execution deaths (503).
	ReasonBreakerOpen = "breaker_open"
	// ReasonDraining: the server is shutting down (503).
	ReasonDraining = "draining"
)

// RejectionReasons enumerates every Reason value, for table-driven
// tests and client generators.
var RejectionReasons = []string{ReasonQuota, ReasonQueueFull, ReasonBreakerOpen, ReasonDraining}

// reasonCode maps a rejection reason onto its HTTP-style status:
// overload reasons are 429 (the client should slow down), while
// unavailability reasons are 503 (the server, or this tenant's class,
// is refusing service for now).
func reasonCode(reason string) int {
	switch reason {
	case ReasonBreakerOpen, ReasonDraining:
		return 503
	default:
		return 429
	}
}

// Rejection is a structured load-shedding decision: the service chose
// not to queue the request rather than let the queue grow without
// bound. It maps to HTTP 429 (overload shedding: quota, queue_full)
// or 503 (breaker_open, draining) and carries enough state for the
// client to back off intelligently.
type Rejection struct {
	// Code is the HTTP-style status the rejection maps to (see
	// reasonCode).
	Code int `json:"code"`
	// Reason is one of the Reason* enum values.
	Reason string `json:"reason"`
	// Tenant is the (normalized) tenant the decision applied to.
	Tenant string `json:"tenant,omitempty"`
	// Lane is the priority lane the request was bound for.
	Lane string `json:"lane"`
	// QueueLen/QueueCap describe the lane at rejection time.
	QueueLen int `json:"queue_len"`
	QueueCap int `json:"queue_cap"`
	// RetryAfterMS is the server's backoff hint: the tenant's token
	// refill schedule (quota), the breaker's remaining cooldown
	// (breaker_open), or ShedRetryAfter (queue_full, draining).
	RetryAfterMS int64 `json:"retry_after_ms"`
}

func (r *Rejection) Error() string {
	return fmt.Sprintf("service: %s (tenant %s, lane %s, queue %d/%d, retry after %dms)",
		r.Reason, r.Tenant, r.Lane, r.QueueLen, r.QueueCap, r.RetryAfterMS)
}

// ExecError is a request whose supervised execution died: the scenario
// panicked (a simulated SIGSEGV escaping the harness) or returned an
// infrastructure error. The request degrades to a structured 500; the
// process and every other in-flight request carry on.
type ExecError struct {
	ID string
	// Status is the supervisor's verdict: always failed, since a
	// deadline that ends a run answers ctx.Err() instead.
	Status resilience.Status
	// Crashes are the structured records of every attempt.
	Crashes []resilience.CrashRecord
	Message string
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("service: execution of %s %s: %s", e.ID, e.Status, e.Message)
}
