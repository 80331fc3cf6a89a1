package service

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// admissionClock is a hand-cranked clock for deterministic quota and
// queue tests.
type admissionClock struct {
	mu sync.Mutex
	t  time.Time
}

func newAdmissionClock() *admissionClock {
	return &admissionClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *admissionClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *admissionClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestNormalizeTenant(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", DefaultTenant},
		{"   ", DefaultTenant},
		{"Acme", "acme"},
		{"  TeamRed  ", "teamred"},
		{strings.Repeat("x", 100), strings.Repeat("x", 64)},
	}
	for _, c := range cases {
		if got := NormalizeTenant(c.in); got != c.want {
			t.Errorf("NormalizeTenant(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestQuotaTakeRefillRefund pins the token-bucket arithmetic on a
// virtual clock: burst bounds the spike, rate refills lazily, refunds
// restore but never exceed burst, and the refusal wait is the honest
// time to the next token.
func TestQuotaTakeRefillRefund(t *testing.T) {
	clk := newAdmissionClock()
	q := NewTenantQuotas(QuotaConfig{Rate: 10, Burst: 2}, clk.Now)

	for i := 0; i < 2; i++ {
		if ok, _ := q.TryTake("acme"); !ok {
			t.Fatalf("take %d refused with a full bucket", i)
		}
	}
	ok, wait := q.TryTake("acme")
	if ok {
		t.Fatal("take succeeded on an empty bucket")
	}
	if wait != 100*time.Millisecond {
		t.Fatalf("empty-bucket wait = %v, want 100ms (1 token at 10/s)", wait)
	}

	clk.Advance(100 * time.Millisecond)
	if ok, _ := q.TryTake("acme"); !ok {
		t.Fatal("take refused after exactly one token refilled")
	}

	// Refund restores a token; refunding past burst is capped.
	q.Refund("acme")
	q.Refund("acme")
	q.Refund("acme")
	if got := q.Tokens("acme"); got != 2 {
		t.Fatalf("tokens after over-refund = %g, want burst cap 2", got)
	}
}

// TestQuotaDisabledAdmitsEverything: the zero config is a no-op table.
func TestQuotaDisabledAdmitsEverything(t *testing.T) {
	q := NewTenantQuotas(QuotaConfig{}, nil)
	for i := 0; i < 1000; i++ {
		if ok, _ := q.TryTake("anyone"); !ok {
			t.Fatal("disabled quotas refused an admission")
		}
	}
}

func TestQuotaBurstDefaultsToTwiceRate(t *testing.T) {
	clk := newAdmissionClock()
	q := NewTenantQuotas(QuotaConfig{Rate: 5}, clk.Now)
	if got := q.Tokens("t"); got != 10 {
		t.Fatalf("initial tokens = %g, want default burst 2*rate = 10", got)
	}
}
