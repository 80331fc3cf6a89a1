package attack

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/defense"
)

// runScenario is a test helper that executes one catalogue entry.
func runScenario(t *testing.T, id string, cfg defense.Config) *Outcome {
	t.Helper()
	s, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Run(cfg)
	if err != nil {
		t.Fatalf("%s under %s: %v", id, cfg.Name, err)
	}
	if o.Scenario != id || o.Defense != cfg.Name {
		t.Fatalf("outcome mislabeled: %+v", o)
	}
	return o
}

func TestCatalogIntegrity(t *testing.T) {
	cat := Catalog()
	if len(cat) != 29 {
		t.Errorf("catalogue has %d scenarios, want 29", len(cat))
	}
	seen := map[string]bool{}
	for _, s := range cat {
		if s.ID == "" || s.Ref == "" || s.Title == "" || s.Run == nil {
			t.Errorf("incomplete scenario %+v", s)
		}
		if seen[s.ID] {
			t.Errorf("duplicate scenario id %q", s.ID)
		}
		seen[s.ID] = true
		if !strings.HasPrefix(s.Ref, "§") {
			t.Errorf("scenario %s ref %q lacks section citation", s.ID, s.Ref)
		}
		if got, err := ByID(s.ID); err != nil || got.ID != s.ID || got.Ref != s.Ref || got.Title != s.Title {
			t.Errorf("ByID(%q) = %+v, %v; want the catalogue entry", s.ID, got, err)
		}
	}
	_, err := ByID("no-such")
	const want = `attack: unknown scenario "no-such" (known: [arc-injection array-2step-bss array-2step-stack bss-overflow canary-skip code-injection construct-overflow dangling-write dos-exhaust dos-loop funcptr heap-overflow indirect-overflow infoleak-array infoleak-object internal-overflow member-var memleak remote-array remote-overflow stack-ret type-confusion var-bss var-stack varptr vptr-bss vptr-crash vptr-multi vptr-stack])`
	if err == nil || err.Error() != want {
		t.Errorf("ByID(no-such) error = %v, want %s", err, want)
	}
}

// TestAllAttacksSucceedUndefended is the paper's headline claim: every
// demonstrated attack works on the undefended testbed.
func TestAllAttacksSucceedUndefended(t *testing.T) {
	for _, s := range Catalog() {
		t.Run(s.ID, func(t *testing.T) {
			o, err := s.Run(defense.None)
			if err != nil {
				t.Fatal(err)
			}
			if !o.Succeeded {
				t.Errorf("attack failed undefended: %s (details: %v)", o.Status(), o.Details)
			}
			if o.Prevented || o.Detected {
				t.Errorf("phantom defense fired: %+v", o)
			}
		})
	}
}

// TestCheckedPlacementStopsOverflows: §5.1 correct coding prevents every
// scenario whose root cause is an oversized placement.
func TestCheckedPlacementStopsOverflows(t *testing.T) {
	prevented := []string{
		"construct-overflow", "remote-overflow", "indirect-overflow",
		"internal-overflow", "bss-overflow", "heap-overflow", "stack-ret",
		"canary-skip", "arc-injection", "code-injection", "var-bss",
		"var-stack", "member-var", "vptr-bss", "vptr-stack", "funcptr",
		"varptr", "array-2step-stack", "array-2step-bss", "dos-loop",
	}
	for _, id := range prevented {
		t.Run(id, func(t *testing.T) {
			o := runScenario(t, id, defense.CheckedOnly)
			if !o.Prevented || o.PreventedBy != "checked-placement" {
				t.Errorf("status = %s (by %q), want prevented by checked-placement; %v",
					o.Status(), o.PreventedBy, o.Details)
			}
			if o.Succeeded {
				t.Error("attack still succeeded")
			}
		})
	}
}

// TestCheckedPlacementDoesNotStopLeaks: the §4.3 information leaks and the
// §4.5 leak are not bounds violations, so bounds checking alone cannot
// stop them — exactly the paper's point that sanitization and placement
// delete are separate remedies.
func TestCheckedPlacementDoesNotStopLeaks(t *testing.T) {
	for _, id := range []string{"infoleak-array", "infoleak-object", "memleak"} {
		t.Run(id, func(t *testing.T) {
			o := runScenario(t, id, defense.CheckedOnly)
			if !o.Succeeded {
				t.Errorf("leak unexpectedly stopped by bounds checking: %s %v", o.Status(), o.Details)
			}
		})
	}
}

// TestStackGuardMatrix: the canary detects linear stack smashes but (a)
// does nothing for data/bss/heap attacks and (b) is bypassed by the §5.2
// selective write.
func TestStackGuardMatrix(t *testing.T) {
	detected := []string{"stack-ret", "arc-injection", "code-injection", "array-2step-stack"}
	for _, id := range detected {
		t.Run("detects/"+id, func(t *testing.T) {
			o := runScenario(t, id, defense.StackGuardOnly)
			if !o.Detected || o.DetectedBy != "stackguard" {
				t.Errorf("status = %s (by %q), want detected by stackguard; %v", o.Status(), o.DetectedBy, o.Details)
			}
		})
	}
	unaffected := []string{"bss-overflow", "heap-overflow", "var-bss", "vptr-bss", "infoleak-array", "memleak", "varptr"}
	for _, id := range unaffected {
		t.Run("misses/"+id, func(t *testing.T) {
			o := runScenario(t, id, defense.StackGuardOnly)
			if !o.Succeeded {
				t.Errorf("non-stack attack stopped by canary: %s %v", o.Status(), o.Details)
			}
		})
	}
	t.Run("bypassed-by-canary-skip", func(t *testing.T) {
		o := runScenario(t, "canary-skip", defense.StackGuardOnly)
		if !o.Succeeded {
			t.Errorf("canary-skip failed against StackGuard: %s %v", o.Status(), o.Details)
		}
		if o.Detected {
			t.Error("StackGuard detected the selective write")
		}
	})
}

// TestShadowStackCatchesCanarySkip: the §5.2 return-address stack stops
// what StackGuard misses.
func TestShadowStackCatchesCanarySkip(t *testing.T) {
	o := runScenario(t, "canary-skip", defense.ShadowOnly)
	if !o.Detected || o.DetectedBy != "shadowstack" {
		t.Errorf("status = %s (by %q), want detected by shadowstack; %v", o.Status(), o.DetectedBy, o.Details)
	}
	for _, id := range []string{"stack-ret", "arc-injection"} {
		o := runScenario(t, id, defense.ShadowOnly)
		if !o.Detected || o.DetectedBy != "shadowstack" {
			t.Errorf("%s: status = %s, want shadow detection", id, o.Status())
		}
	}
}

// TestNXStopsCodeInjectionOnly: NX prevents executing stack bytes but not
// arc injection (ret2libc), the distinction §3.6.2 draws.
func TestNXStopsCodeInjectionOnly(t *testing.T) {
	o := runScenario(t, "code-injection", defense.NXOnly)
	if !o.Prevented || o.PreventedBy != "nx" {
		t.Errorf("code-injection: status = %s (by %q), want prevented by nx; %v", o.Status(), o.PreventedBy, o.Details)
	}
	o = runScenario(t, "arc-injection", defense.NXOnly)
	if !o.Succeeded {
		t.Errorf("arc-injection stopped by NX: %s %v", o.Status(), o.Details)
	}
}

// TestRuntimeGuardCoverage: the libsafe-style guard prevents placements it
// can bound but is blind to internal overflows (inference too coarse) and
// to the raw copy of the indirect attack — the §5.2 limitations.
func TestRuntimeGuardCoverage(t *testing.T) {
	prevented := []string{"construct-overflow", "remote-overflow", "bss-overflow",
		"heap-overflow", "stack-ret", "var-bss", "var-stack", "funcptr", "varptr"}
	for _, id := range prevented {
		t.Run("prevents/"+id, func(t *testing.T) {
			o := runScenario(t, id, defense.GuardOnly)
			if !o.Prevented {
				t.Errorf("status = %s, want prevented; %v", o.Status(), o.Details)
			}
		})
	}
	blind := []string{"internal-overflow", "indirect-overflow"}
	for _, id := range blind {
		t.Run("misses/"+id, func(t *testing.T) {
			o := runScenario(t, id, defense.GuardOnly)
			if !o.Succeeded {
				t.Errorf("guard unexpectedly stopped %s: %s %v", id, o.Status(), o.Details)
			}
		})
	}
}

// TestSanitizeStopsInfoLeaks: §5.1 memory sanitization zeroes the remnants.
func TestSanitizeStopsInfoLeaks(t *testing.T) {
	for _, id := range []string{"infoleak-array", "infoleak-object"} {
		t.Run(id, func(t *testing.T) {
			o := runScenario(t, id, defense.SanitizeOnly)
			if o.Succeeded {
				t.Errorf("leak survived sanitization: %v", o.Details)
			}
			if o.Metrics["leaked_bytes"] > 0 || o.Metrics["ssn_recovered"] > 0 {
				t.Errorf("metrics show residual leak: %v", o.Metrics)
			}
		})
	}
}

// TestMemGuardCoverage: placement-aware red zones detect every data/bss
// overflow at the offending write — including the indirect copy and the
// internal overflow that the runtime guard cannot see — while stack and
// heap arenas are out of its scope by design.
func TestMemGuardCoverage(t *testing.T) {
	detected := []string{
		"construct-overflow", "remote-overflow", "remote-array",
		"indirect-overflow", "internal-overflow", "bss-overflow",
		"var-bss", "vptr-bss", "vptr-crash", "vptr-multi", "varptr",
	}
	for _, id := range detected {
		t.Run("detects/"+id, func(t *testing.T) {
			o := runScenario(t, id, defense.MemGuardOnly)
			if !o.Detected || o.DetectedBy != "memguard" {
				t.Errorf("status = %s (by %q), want detected by memguard; %v",
					o.Status(), o.DetectedBy, o.Details)
			}
		})
	}
	outOfScope := []string{"stack-ret", "heap-overflow", "infoleak-array", "memleak", "type-confusion"}
	for _, id := range outOfScope {
		t.Run("misses/"+id, func(t *testing.T) {
			o := runScenario(t, id, defense.MemGuardOnly)
			if !o.Succeeded {
				t.Errorf("out-of-scope attack stopped by memguard: %s %v", o.Status(), o.Details)
			}
		})
	}
}

// TestTypeConfusionDefeatsPureBoundsChecking: §2.5(3) — a same-size
// unrelated class sails through the size check; only class-compatibility
// enforcement stops it.
func TestTypeConfusionDefeatsPureBoundsChecking(t *testing.T) {
	o := runScenario(t, "type-confusion", defense.None)
	if !o.Succeeded {
		t.Fatalf("undefended: %s %v", o.Status(), o.Details)
	}
	o = runScenario(t, "type-confusion", defense.CheckedOnly)
	if !o.Succeeded {
		t.Errorf("bounds checking unexpectedly stopped same-size confusion: %s %v", o.Status(), o.Details)
	}
	o = runScenario(t, "type-confusion", defense.TypedOnly)
	if !o.Prevented || o.PreventedBy != "typed-placement" {
		t.Errorf("typed placement did not stop confusion: %s (by %q) %v", o.Status(), o.PreventedBy, o.Details)
	}
	// Typed placement still allows the legitimate derived-into-base reuse.
	o = runScenario(t, "construct-overflow", defense.TypedOnly)
	if !o.Prevented || o.PreventedBy != "checked-placement" {
		t.Errorf("typed config lost the bounds check: %s (by %q)", o.Status(), o.PreventedBy)
	}
}

// TestHeapGuardDetectsHeapOverflowOnly: allocator red zones catch the
// §3.5.1 heap overflow at free time but are blind to everything that
// never crosses a heap block boundary.
func TestHeapGuardDetectsHeapOverflowOnly(t *testing.T) {
	o := runScenario(t, "heap-overflow", defense.HeapGuardOnly)
	if !o.Detected || o.DetectedBy != "heapguard" {
		t.Errorf("heap-overflow: status = %s (by %q), want detected by heapguard; %v",
			o.Status(), o.DetectedBy, o.Details)
	}
	for _, id := range []string{"bss-overflow", "stack-ret", "vptr-bss", "infoleak-array"} {
		o := runScenario(t, id, defense.HeapGuardOnly)
		if !o.Succeeded {
			t.Errorf("%s stopped by heapguard: %s %v", id, o.Status(), o.Details)
		}
	}
}

// TestPlacementDeleteStopsMemLeak: the §5.1 remedy for §4.5.
func TestPlacementDeleteStopsMemLeak(t *testing.T) {
	o := runScenario(t, "memleak", defense.DeleteOnly)
	if o.Succeeded || o.Metrics["leaked_bytes"] != 0 {
		t.Errorf("leak survived placement delete: %v %v", o.Metrics, o.Details)
	}
}

// TestHardenedStopsEverything: the full stack of defenses leaves no
// scenario successful.
func TestHardenedStopsEverything(t *testing.T) {
	for _, s := range Catalog() {
		t.Run(s.ID, func(t *testing.T) {
			o, err := s.Run(defense.Hardened)
			if err != nil {
				t.Fatal(err)
			}
			if o.Succeeded {
				t.Errorf("attack survived hardened config: %v", o.Details)
			}
		})
	}
}

func TestPaperGeometryMetrics(t *testing.T) {
	// §3.6.1: with neither canary nor... the default process saves the
	// frame pointer, so the return slot is ssn[1]; with StackGuard it is
	// ssn[2].
	o := runScenario(t, "stack-ret", defense.None)
	if got := o.Metrics["ret_ssn_index"]; got != 1 {
		t.Errorf("ret index under saved-FP = %v, want 1", got)
	}
	o = runScenario(t, "stack-ret", defense.StackGuardOnly)
	if got := o.Metrics["ret_ssn_index"]; got != 2 {
		t.Errorf("ret index under canary+FP = %v, want 2", got)
	}
	// §4.5: leak per iteration equals sizeof(GradStudent)-sizeof(Student).
	o = runScenario(t, "memleak", defense.None)
	if o.Metrics["leak_per_iteration"] != o.Metrics["expected_per_iteration"] {
		t.Errorf("leak per iteration %v != expected %v",
			o.Metrics["leak_per_iteration"], o.Metrics["expected_per_iteration"])
	}
	// §4.4: amplification is huge.
	o = runScenario(t, "dos-loop", defense.None)
	if o.Metrics["amplification"] < 1000 {
		t.Errorf("amplification = %v", o.Metrics["amplification"])
	}
	if o.Metrics["validation_bypassed"] != 1 {
		t.Error("starvation variant did not bypass validation")
	}
}

func TestHeapOverflowBeforeAfterDemo(t *testing.T) {
	// Listing 12 prints the neighbour before and after; reproduce the demo
	// output shape.
	o := runScenario(t, "heap-overflow", defense.None)
	if !o.Succeeded {
		t.Fatalf("heap overflow failed: %v", o.Details)
	}
	if o.Metrics["heap_metadata_corrupt"] != 1 {
		t.Error("allocator metadata survived the overflow untouched")
	}
}

// countdownCtx reports a deadline from its (n+1)th check of Err on.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestBatchesStopAtTheirDeadline: RunAll and RunMatrix check their ctx
// before each scenario or cell, so a deadline that passes mid-batch
// stops it with ctx.Err() instead of running the rest.
func TestBatchesStopAtTheirDeadline(t *testing.T) {
	if outs, err := RunAll(&countdownCtx{context.Background(), 3}, defense.None); !errors.Is(err, context.DeadlineExceeded) || outs != nil {
		t.Fatalf("RunAll past its deadline = %d outcomes, %v; want none and context.DeadlineExceeded", len(outs), err)
	}
	configs := []defense.Config{defense.None, defense.CheckedOnly}
	if m, err := RunMatrix(&countdownCtx{context.Background(), 3}, configs); !errors.Is(err, context.DeadlineExceeded) || m != nil {
		t.Fatalf("RunMatrix past its deadline = %d rows, %v; want none and context.DeadlineExceeded", len(m), err)
	}
}

func TestRunAllAndMatrix(t *testing.T) {
	outs, err := RunAll(context.Background(), defense.None)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(Catalog()) {
		t.Fatalf("RunAll returned %d outcomes", len(outs))
	}
	matrix, err := RunMatrix(context.Background(), []defense.Config{defense.None, defense.CheckedOnly})
	if err != nil {
		t.Fatal(err)
	}
	if len(matrix) != len(Catalog()) {
		t.Fatalf("matrix rows = %d", len(matrix))
	}
	for id, row := range matrix {
		if len(row) != 2 {
			t.Errorf("row %s has %d cells", id, len(row))
		}
		for cfg, o := range row {
			if o.Scenario != id || o.Defense != cfg {
				t.Errorf("cell mislabeled: %+v", o)
			}
		}
	}
}

func TestOutcomeStatusStrings(t *testing.T) {
	tests := []struct {
		o    Outcome
		want string
	}{
		{Outcome{Succeeded: true}, "SUCCESS"},
		{Outcome{Prevented: true}, "prevented"},
		{Outcome{Detected: true}, "detected"},
		{Outcome{Crashed: true}, "crashed"},
		{Outcome{}, "no-effect"},
	}
	for _, tt := range tests {
		if got := tt.o.Status(); got != tt.want {
			t.Errorf("Status() = %q, want %q", got, tt.want)
		}
	}
}
