package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestSoakGolden pins the default soak's report byte for byte at two
// seeds, indented JSON with a trailing newline. Regenerate with
// go test ./internal/service -run TestSoakGolden -update
func TestSoakGolden(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			got, err := json.MarshalIndent(RunTenantSoak(DefaultSoakConfig(seed)), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", fmt.Sprintf("soak_seed%d.json", seed))
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("soak report at seed %d drifted from %s:\n%s", seed, path, got)
			}
		})
	}
}

// TestSoakByteDeterministic: equal seeds produce byte-equal reports,
// and different seeds different ones.
func TestSoakByteDeterministic(t *testing.T) {
	a, err := json.MarshalIndent(RunTenantSoak(DefaultSoakConfig(42)), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(RunTenantSoak(DefaultSoakConfig(42)), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two soaks with the same seed produced different bytes")
	}
	c, _ := json.MarshalIndent(RunTenantSoak(DefaultSoakConfig(43)), "", "  ")
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical reports (seed not plumbed)")
	}
}

// TestSoakFairnessGates: the adversarial three-tenant scenario meets
// the issue's acceptance gates — the well-behaved tenant keeps >= 80%
// of its offered goodput while the greedy tenant is rate-limited, and
// nothing starves.
func TestSoakFairnessGates(t *testing.T) {
	rep := RunTenantSoak(DefaultSoakConfig(42))

	well, err := rep.TenantByName("wellbehaved")
	if err != nil {
		t.Fatal(err)
	}
	if well.FairShare < 0.8 {
		t.Fatalf("well-behaved fair share = %g, want >= 0.8", well.FairShare)
	}

	greedy, err := rep.TenantByName("greedy")
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Shed[ReasonQuota] == 0 {
		t.Fatal("greedy tenant was never quota-limited")
	}
	if greedy.Completed >= greedy.Offered {
		t.Fatal("greedy tenant completed its entire overload")
	}

	if rep.StarvationRatio != 0 {
		t.Fatalf("starvation ratio = %g (starved %d of %d), want 0",
			rep.StarvationRatio, rep.LowStarved, rep.LowAdmitted)
	}
	if rep.LowAdmitted == 0 {
		t.Fatal("no low-priority work admitted; the starvation gate is vacuous")
	}
	for _, ts := range rep.Tenants {
		if ts.Completed > 0 && ts.P99MS <= 0 {
			t.Fatalf("tenant %s has completions but no p99", ts.Name)
		}
	}
}

// TestSoakChaosFeedsBreaker: a tenant whose executions keep dying trips
// its circuit breaker, which sheds with breaker_open instead of
// wasting workers.
func TestSoakChaosFeedsBreaker(t *testing.T) {
	cfg := DefaultSoakConfig(7)
	cfg.Tenants = append(cfg.Tenants, TenantSpec{
		Name: "crashy", Pattern: "steady", Rate: 100, Priority: "normal", ChaosProb: 0.9,
	})
	rep := RunTenantSoak(cfg)
	if rep.BreakerOpens == 0 {
		t.Fatal("chaos tenant never opened its breaker")
	}
	crashy, err := rep.TenantByName("crashy")
	if err != nil {
		t.Fatal(err)
	}
	if crashy.Shed[ReasonBreakerOpen] == 0 {
		t.Fatal("open breaker never shed a crashy request")
	}
	// The breaker isolates: other tenants never see breaker_open.
	for _, name := range []string{"greedy", "bursty", "wellbehaved"} {
		ts, err := rep.TenantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Shed[ReasonBreakerOpen] != 0 {
			t.Fatalf("tenant %s shed by another tenant's breaker", name)
		}
	}
}

// TestSoakReleasesShedProbe: a half-open probe that the quota sheds
// gives the probe back, so a tenant whose executions keep dying still
// gets a probe on its next request after each cooldown instead of
// answering breaker_open for good.
func TestSoakReleasesShedProbe(t *testing.T) {
	rep := RunTenantSoak(SoakConfig{
		Seed:     1,
		Duration: 10 * time.Second,
		Quota:    QuotaConfig{Rate: 5, Burst: 1},
		Breaker:  BreakerConfig{Threshold: 1, Cooldown: 100 * time.Millisecond},
		Tenants: []TenantSpec{
			{Name: "flaky", Pattern: "steady", Rate: 50, Priority: "normal", ChaosProb: 0.5},
		},
	})
	flaky, err := rep.TenantByName("flaky")
	if err != nil {
		t.Fatal(err)
	}
	if flaky.Shed[ReasonBreakerOpen] >= flaky.Shed[ReasonQuota] {
		t.Errorf("breaker_open sheds = %d, quota sheds = %d; want fewer breaker_open (a shed probe was never released)",
			flaky.Shed[ReasonBreakerOpen], flaky.Shed[ReasonQuota])
	}
	if flaky.Admitted < 20 {
		t.Errorf("admitted %d of %d, want at least 20 (shed %v)", flaky.Admitted, flaky.Offered, flaky.Shed)
	}
}

// TestSoakAgingPromotes: the default scenario's mixed low-priority work
// behind a greedy high-priority stream exercises the aging path.
func TestSoakAgingPromotes(t *testing.T) {
	cfg := DefaultSoakConfig(42)
	rep := RunTenantSoak(cfg)
	if rep.AgedPromotions == 0 {
		t.Skip("no promotions at this load; aging untested here (covered by fairqueue tests)")
	}
}

// TestSoakShortWindow: a 1s window still produces a sane report (the
// smoke the CI job uses to keep runtime down).
func TestSoakShortWindow(t *testing.T) {
	cfg := DefaultSoakConfig(1)
	cfg.Duration = time.Second
	rep := RunTenantSoak(cfg)
	if rep.DurationMS != 1000 || rep.SchemaVersion != SoakSchemaVersion {
		t.Fatalf("report header = %+v", rep)
	}
	total := 0
	for _, ts := range rep.Tenants {
		shed := 0
		for _, n := range ts.Shed {
			shed += n
		}
		if ts.Offered != ts.Admitted+shed {
			t.Fatalf("tenant %s: offered %d != admitted %d + shed %d", ts.Name, ts.Offered, ts.Admitted, shed)
		}
		if ts.Admitted != ts.Completed+ts.Failed {
			t.Fatalf("tenant %s: admitted %d != completed %d + failed %d (work lost)",
				ts.Name, ts.Admitted, ts.Completed, ts.Failed)
		}
		total += ts.Offered
	}
	if total == 0 {
		t.Fatal("empty schedule")
	}
}
