package compile

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/shrink"
)

// TestDifferentialEquivalence is the equivalence harness: every
// catalogue scenario crossed with every catalogue defense runs once
// interpreted (the reference) and once compiled-and-replayed, and the
// two terminal states must be byte-identical on every plane — events,
// output, full segment bytes, dirty-page bitmaps, shadow sanitizer
// state, and the placement ledger. A mismatch is minimized with
// shrink.Greedy to the smallest op subsequence that still diverges
// before the test reports it.
func TestDifferentialEquivalence(t *testing.T) {
	for _, s := range attack.Catalog() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range defense.Catalog() {
				checkEquivalence(t, s, cfg)
			}
		})
	}
}

// checkEquivalence runs one (scenario, defense) cell through both
// paths and fails with a minimized trace on divergence.
func checkEquivalence(t *testing.T, s attack.Scenario, cfg defense.Config) {
	t.Helper()

	// Interpreted reference run.
	var ref Reference
	rcfg := cfg
	ref.Observe(&rcfg)
	refOut, err := s.Run(rcfg)
	if err != nil {
		t.Fatalf("%s/%s: interpreted run: %v", s.ID, cfg.Name, err)
	}

	// Record (a second interpreted run) and compile.
	sp, err := CompileScenario(s, cfg)
	if err != nil {
		t.Fatalf("%s/%s: compile: %v", s.ID, cfg.Name, err)
	}

	// The recording run doubles as a determinism check: its outcome
	// must match the reference run's.
	recOut := sp.Outcome()
	if got, want := recOut.Status(), refOut.Status(); got != want {
		t.Fatalf("%s/%s: outcome drift between interpreted runs: %s vs %s",
			s.ID, cfg.Name, got, want)
	}

	// Replay and diff every plane.
	res, err := sp.Prog.Execute(nil)
	if err != nil {
		t.Fatalf("%s/%s: execute: %v", s.ID, cfg.Name, err)
	}
	diffs := Diff(ref.Procs(), res)
	if len(diffs) == 0 {
		return
	}
	for _, d := range diffs {
		t.Errorf("%s/%s: divergence: %s", s.ID, cfg.Name, d)
	}
	reportMinimized(t, s, cfg, ref.Procs(), sp.Prog, res)
}

// reportMinimized locates the first diverging process and uses
// shrink.Greedy to find a 1-minimal subsequence of its ops that still
// diverges from the interpreted reference, logging the trace.
func reportMinimized(t *testing.T, s attack.Scenario, cfg defense.Config,
	ref []*machine.Process, prog *Program, res *Result) {
	t.Helper()
	if len(ref) != len(res.Procs) {
		return // count mismatch: nothing op-level to minimize
	}
	for i := range ref {
		if len(DiffProc(ref[i], res.Procs[i])) == 0 {
			continue
		}
		pp := prog.Procs[i]
		ip := ref[i]
		failing := shrink.Predicate[Op](func(cand []Op) bool {
			trial := &ProcProgram{Img: pp.Img, Ops: cand, Output: pp.Output, Shadow: pp.Shadow}
			prc, err := trial.execute(nil)
			if err != nil {
				return false
			}
			return len(DiffProc(ip, prc)) > 0
		})
		minOps := shrink.Greedy(pp.Ops, failing)
		t.Logf("%s/%s proc %d: minimized diverging trace (%d of %d ops):",
			s.ID, cfg.Name, i, len(minOps), len(pp.Ops))
		for _, op := range minOps {
			t.Logf("  %s", op.String())
		}
		return
	}
}

// TestDifferentialWithPool re-runs a representative slice of the
// matrix with replay images sourced from a shared pool, proving the
// copy-on-write clone path replays identically to fresh mapping.
func TestDifferentialWithPool(t *testing.T) {
	pool := mem.NewImagePool()
	cfgs := []defense.Config{defense.None, defense.Hardened, defense.ShadowOnly}
	for _, s := range attack.Catalog()[:6] {
		for _, cfg := range cfgs {
			var ref Reference
			rcfg := cfg
			ref.Observe(&rcfg)
			if _, err := s.Run(rcfg); err != nil {
				t.Fatalf("%s/%s: interpreted: %v", s.ID, cfg.Name, err)
			}
			sp, err := CompileScenario(s, cfg)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", s.ID, cfg.Name, err)
			}
			_, res, err := sp.Run(pool)
			if err != nil {
				t.Fatalf("%s/%s: pooled execute: %v", s.ID, cfg.Name, err)
			}
			if diffs := Diff(ref.Procs(), res); len(diffs) > 0 {
				t.Errorf("%s/%s: pooled replay diverged: %v", s.ID, cfg.Name, diffs)
			}
		}
	}
}

// TestDumpDeterminism compiles every catalogue scenario twice under
// None and Hardened and requires byte-identical program dumps: the
// same program is always lowered to the same ops.
func TestDumpDeterminism(t *testing.T) {
	for _, s := range attack.Catalog() {
		for _, cfg := range []defense.Config{defense.None, defense.Hardened} {
			a, err := CompileScenario(s, cfg)
			if err != nil {
				t.Fatalf("%s/%s: compile 1: %v", s.ID, cfg.Name, err)
			}
			b, err := CompileScenario(s, cfg)
			if err != nil {
				t.Fatalf("%s/%s: compile 2: %v", s.ID, cfg.Name, err)
			}
			if a.Prog.Dump() != b.Prog.Dump() {
				t.Errorf("%s/%s: dumps differ across independent compiles", s.ID, cfg.Name)
			}
		}
	}
}

// TestNotCompilableSignals covers the bailout contract.
func TestNotCompilableSignals(t *testing.T) {
	s := attack.Catalog()[0]

	cfg := defense.None
	cfg.OnProcess = func(*machine.Process) {}
	if _, err := CompileScenario(s, cfg); err != ErrNotCompilable {
		t.Errorf("foreign OnProcess: got %v, want ErrNotCompilable", err)
	}

	cfg = defense.None
	cfg.OnImage = func(*mem.Image) {}
	if _, err := CompileScenario(s, cfg); err != ErrNotCompilable {
		t.Errorf("foreign OnImage: got %v, want ErrNotCompilable", err)
	}

	// A run that restores a checkpoint is not straight-line.
	_, err := Record("restorer", defense.None, func(c defense.Config) error {
		p, err := c.NewProcess()
		if err != nil {
			return err
		}
		cp := p.CowCheckpoint()
		if err := p.Mem.WriteU32(p.Img.Data.Base, 0xdeadbeef); err != nil {
			return err
		}
		return p.RestoreCheckpoint(cp)
	})
	if err != ErrNotCompilable {
		t.Errorf("restore run: got %v, want ErrNotCompilable", err)
	}
}
