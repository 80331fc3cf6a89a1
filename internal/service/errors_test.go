package service

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRejectionReasons is the table-driven contract over the full
// reason enum: each reason maps to its HTTP-style code, serializes
// machine-readably, and renders a readable error string.
func TestRejectionReasons(t *testing.T) {
	wantCode := map[string]int{
		ReasonQuota:       429,
		ReasonQueueFull:   429,
		ReasonBreakerOpen: 503,
		ReasonDraining:    503,
	}
	if len(wantCode) != len(RejectionReasons) {
		t.Fatalf("test table covers %d reasons, enum has %d", len(wantCode), len(RejectionReasons))
	}
	for _, reason := range RejectionReasons {
		t.Run(reason, func(t *testing.T) {
			code, ok := wantCode[reason]
			if !ok {
				t.Fatalf("reason %q missing from the expectation table", reason)
			}
			if got := reasonCode(reason); got != code {
				t.Fatalf("reasonCode(%q) = %d, want %d", reason, got, code)
			}
			rej := &Rejection{
				Code:         reasonCode(reason),
				Reason:       reason,
				Tenant:       "acme",
				Lane:         "normal",
				QueueLen:     3,
				QueueCap:     8,
				RetryAfterMS: 125,
			}
			b, err := json.Marshal(rej)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var decoded map[string]any
			if err := json.Unmarshal(b, &decoded); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if decoded["reason"] != reason {
				t.Fatalf("JSON reason = %v, want %q", decoded["reason"], reason)
			}
			if decoded["tenant"] != "acme" {
				t.Fatalf("JSON tenant = %v, want acme", decoded["tenant"])
			}
			if decoded["retry_after_ms"] != float64(125) {
				t.Fatalf("JSON retry_after_ms = %v, want 125", decoded["retry_after_ms"])
			}
			msg := rej.Error()
			for _, frag := range []string{reason, "acme", "normal", "125ms"} {
				if !strings.Contains(msg, frag) {
					t.Fatalf("Error() = %q, missing %q", msg, frag)
				}
			}
		})
	}
}

// TestRejectionTenantOmittedWhenEmpty: pre-tenant clients see the same
// JSON shape they always did.
func TestRejectionTenantOmittedWhenEmpty(t *testing.T) {
	b, err := json.Marshal(&Rejection{Code: 429, Reason: ReasonQueueFull, Lane: "low"})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if strings.Contains(string(b), "tenant") {
		t.Fatalf("empty tenant serialized: %s", b)
	}
}
