package repro

// The reproduction acceptance test: every headline claim of the paper (and
// of EXPERIMENTS.md) asserted in one place, end to end, over the public
// harness entry points rather than package internals.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/experiments"
)

func TestVersion(t *testing.T) {
	if Version == "" {
		t.Fatal("empty version")
	}
}

// TestReproductionHeadlines asserts the paper's core claims across the
// full matrix in one pass.
func TestReproductionHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is slow in -short mode")
	}
	configs := defense.Catalog()
	matrix, err := attack.RunMatrix(context.Background(), configs)
	if err != nil {
		t.Fatal(err)
	}
	status := func(scenario, cfg string) string {
		row, ok := matrix[scenario]
		if !ok {
			t.Fatalf("scenario %q missing from matrix", scenario)
		}
		o, ok := row[cfg]
		if !ok {
			t.Fatalf("config %q missing from row %q", cfg, scenario)
		}
		return o.Status()
	}

	// §1: "We have demonstrated each of the attacks described in this
	// paper" — everything succeeds undefended.
	for id := range matrix {
		if got := status(id, "none"); got != "SUCCESS" {
			t.Errorf("undefended %s = %s", id, got)
		}
	}

	// §3.6.1 + §5.2: StackGuard detects the linear smash but the
	// selective write bypasses it; the return-address stack catches both.
	if status("stack-ret", "stackguard") != "detected" {
		t.Error("StackGuard missed the linear smash")
	}
	if status("canary-skip", "stackguard") != "SUCCESS" {
		t.Error("canary skip failed to bypass StackGuard")
	}
	if status("canary-skip", "shadowstack") != "detected" {
		t.Error("shadow stack missed the canary skip")
	}

	// §3.6.2: NX blocks code injection, not arc injection.
	if status("code-injection", "nx") != "prevented" {
		t.Error("NX failed to block code injection")
	}
	if status("arc-injection", "nx") != "SUCCESS" {
		t.Error("NX unexpectedly blocked arc injection")
	}

	// §5.1: checked placement prevents every oversized placement but not
	// the leaks (§4.3/§4.5) or same-size type confusion (§2.5(3)).
	for _, id := range []string{"construct-overflow", "stack-ret", "vptr-bss", "array-2step-stack"} {
		if status(id, "checked-pnew") != "prevented" {
			t.Errorf("checked placement missed %s", id)
		}
	}
	for _, id := range []string{"infoleak-array", "memleak", "type-confusion"} {
		if status(id, "checked-pnew") != "SUCCESS" {
			t.Errorf("checked placement unexpectedly stopped %s", id)
		}
	}
	if status("type-confusion", "typed-pnew") != "prevented" {
		t.Error("typed placement missed the type confusion")
	}

	// §5.2 limits: the runtime guard cannot see internal overflows or raw
	// copies; the placement-aware red zones can.
	if status("internal-overflow", "runtime-guard") != "SUCCESS" {
		t.Error("runtime guard unexpectedly caught the internal overflow")
	}
	if status("internal-overflow", "memguard") != "detected" {
		t.Error("memguard missed the internal overflow")
	}
	if status("indirect-overflow", "memguard") != "detected" {
		t.Error("memguard missed the indirect copy")
	}

	// §5.1 remedies are surgical: sanitize stops exactly the info leaks,
	// placement delete exactly the memory leak, heap red zones exactly
	// the heap overflow.
	if status("infoleak-array", "sanitize") == "SUCCESS" || status("infoleak-object", "sanitize") == "SUCCESS" {
		t.Error("sanitization failed")
	}
	if status("memleak", "placement-delete") == "SUCCESS" {
		t.Error("placement delete failed")
	}
	if status("heap-overflow", "heapguard") != "detected" {
		t.Error("heap red zones missed the heap overflow")
	}

	// Everything together leaves nothing standing.
	for id := range matrix {
		if got := status(id, "hardened"); got == "SUCCESS" {
			t.Errorf("hardened config lost to %s", id)
		}
	}
}

// TestAnalyzerHeadline asserts the §1/§7 static-analysis claims.
func TestAnalyzerHeadline(t *testing.T) {
	var vulns, analyzerHits, baselineHits int
	for _, e := range analyzer.Corpus() {
		r, err := analyzer.Analyze(e.Src, analyzer.Options{})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		bf, err := analyzer.Baseline(e.Src)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Vulnerable || len(e.WantCodes) == 0 {
			continue
		}
		vulns++
		hit := true
		for _, c := range e.WantCodes {
			if !r.HasCode(c) {
				hit = false
			}
		}
		if hit {
			analyzerHits++
		}
		if len(bf) > 0 {
			baselineHits++
		}
	}
	if analyzerHits != vulns {
		t.Errorf("analyzer found %d/%d placement-new vulns", analyzerHits, vulns)
	}
	if baselineHits != 0 {
		t.Errorf("baseline found %d placement-new vulns, the paper's claim is zero", baselineHits)
	}
}

// TestExperimentIndexComplete: every experiment indexed in EXPERIMENTS.md
// runs and produces a non-empty table whose title carries the id.
func TestExperimentIndexComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short mode")
	}
	ids := map[string]bool{}
	for _, e := range experiments.All() {
		tb, err := e.Run(experiments.Instrument{})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if tb.NumRows() == 0 || !strings.Contains(tb.Title, e.ID) {
			t.Errorf("%s: malformed table %q", e.ID, tb.Title)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"E1", "E3", "E15", "E16", "E17", "E18"} {
		if !ids[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
}
