package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/resilience"
)

// quickChaos is a small but representative campaign config for tests.
func quickChaos() ChaosConfig {
	return ChaosConfig{
		Seed: 42, Runs: 2, Prob: 0.01,
		Scenarios: []string{"bss-overflow", "stack-ret", "heap-overflow", "memleak"},
		Defenses:  []string{"none", "stackguard", "hardened"},
	}
}

func TestChaosCampaignDeterministic(t *testing.T) {
	a, err := RunChaosCampaign(quickChaos(), Instrument{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaosCampaign(quickChaos(), Instrument{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Deterministic || !b.Deterministic {
		t.Fatalf("internal replay check failed: a=%v b=%v", a.Deterministic, b.Deterministic)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("same seed produced different campaign JSON:\n%s\nvs\n%s", ja, jb)
	}
	// A different seed must actually change the campaign.
	cfg := quickChaos()
	cfg.Seed = 43
	c, err := RunChaosCampaign(cfg, Instrument{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Fatal("different seeds produced identical campaign digests")
	}
}

func TestChaosCampaignInjectsAndRecovers(t *testing.T) {
	cfg := quickChaos()
	cfg.Prob = 0.02 // enough pressure to guarantee crashes
	rep, err := RunChaosCampaign(cfg, Instrument{})
	if err != nil {
		t.Fatal(err)
	}
	var injected, crashes int
	for _, rr := range rep.RunReports {
		for _, c := range rr.Cells {
			injected += c.InjectedFaults
			crashes += len(c.Crashes)
			// Every recovered crash that rolled back must have
			// verified the rollback as clean.
			for _, cr := range c.Crashes {
				if cr.Restored && !cr.RestoreClean {
					t.Errorf("%s/%s attempt %d: restore ran but diff was not empty",
						c.Scenario, c.Defense, cr.Attempt)
				}
			}
			if c.Supervisor == string(resilience.StatusOK) && c.Status == "dead" {
				t.Errorf("%s/%s: ok job reported dead", c.Scenario, c.Defense)
			}
		}
	}
	if injected == 0 {
		t.Fatal("campaign injected no faults — chaos layer not armed")
	}
	if crashes == 0 {
		t.Fatal("no crashes recorded despite injected faults")
	}
	// The restore path must actually have been exercised somewhere.
	restored := 0
	for _, rr := range rep.RunReports {
		for _, c := range rr.Cells {
			for _, cr := range c.Crashes {
				if cr.Restored {
					restored++
				}
			}
		}
	}
	if restored == 0 {
		t.Fatal("no crash triggered a checkpoint restore")
	}
}

func TestChaosCampaignGracefulDegradation(t *testing.T) {
	// A single attempt and an unlimited fault budget make convergence
	// impossible for fault-heavy cells: some jobs must die, and the
	// campaign must degrade to a partial table instead of erroring.
	cfg := quickChaos()
	cfg.Prob = 0.05
	cfg.MaxAttempts = 1
	cfg.MaxFaultsPerJob = -1 // unlimited
	cfg.BreakerThreshold = 1000
	cfg.SkipReplayCheck = true
	rep, err := RunChaosCampaign(cfg, Instrument{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadJobs == 0 {
		t.Skip("no job died under heavy chaos; cannot exercise degradation")
	}
	if rep.Partial == nil {
		t.Fatal("dead jobs but no degraded partial table")
	}
	if len(rep.Partial.Rows) == 0 {
		t.Fatal("partial table is empty")
	}
}

func TestChaosCampaignBreaker(t *testing.T) {
	// With a tiny breaker threshold and guaranteed-fatal injection,
	// the breaker must open and skip later jobs rather than grinding
	// through a crash loop.
	rep, err := RunChaosCampaign(ChaosConfig{
		Seed: 7, Runs: 1, Prob: 1.0,
		Kinds:            []chaos.Kind{chaos.KindUnmapPage},
		MaxAttempts:      1,
		MaxFaultsPerJob:  -1,
		BreakerThreshold: 2,
		SkipReplayCheck:  true,
		Scenarios:        []string{"bss-overflow", "stack-ret", "heap-overflow", "funcptr"},
		Defenses:         []string{"none"},
	}, Instrument{})
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, c := range rep.RunReports[0].Cells {
		if c.Supervisor == string(resilience.StatusSkipped) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("crash-loop breaker never opened")
	}
}

func TestChaosCampaignUnknownInputs(t *testing.T) {
	if _, err := RunChaosCampaign(ChaosConfig{Scenarios: []string{"no-such"}}, Instrument{}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := RunChaosCampaign(ChaosConfig{Defenses: []string{"no-such"}}, Instrument{}); err == nil {
		t.Error("unknown defense accepted")
	}
}

func TestE19Table(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow in -short mode")
	}
	tb, err := runE19(Instrument{})
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	if !strings.Contains(s, "E19") || !strings.Contains(s, "deterministic (replay check)") {
		t.Fatalf("E19 table malformed:\n%s", s)
	}
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "deterministic (replay check)") && !strings.Contains(line, "yes") {
			t.Fatalf("E19 campaign not deterministic:\n%s", s)
		}
	}
}
