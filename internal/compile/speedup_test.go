package compile

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/layout"
	"repro/internal/mem"
)

// minCompiledSpeedup is the compiled tier's headline contract: summed
// over single runs of every catalogue scenario under defense.None, the
// interpreted path costs at least this many times the compiled replay.
const minCompiledSpeedup = 5.0

// scenarioClass buckets a scenario ID into its benchmark class, so the
// speedup gate reports the parts its aggregate is made of.
func scenarioClass(id string) string {
	switch {
	case strings.HasPrefix(id, "vptr") || strings.HasPrefix(id, "type-confusion"):
		return "vptr"
	case strings.HasPrefix(id, "funcptr") || strings.HasPrefix(id, "varptr") ||
		strings.HasPrefix(id, "member-var") || strings.HasPrefix(id, "var-"):
		return "pointer"
	case strings.HasPrefix(id, "array-") || strings.HasPrefix(id, "infoleak-"):
		return "array"
	case strings.HasPrefix(id, "dos-") || strings.HasPrefix(id, "memleak") ||
		strings.HasPrefix(id, "dangling-write"):
		return "lifecycle"
	}
	return "overflow"
}

func TestScenarioClassCoversCatalogue(t *testing.T) {
	valid := map[string]bool{"vptr": true, "pointer": true, "array": true, "lifecycle": true, "overflow": true}
	seen := map[string]bool{}
	for _, s := range attack.Catalog() {
		cls := scenarioClass(s.ID)
		if !valid[cls] {
			t.Errorf("scenario %s mapped to unknown class %q", s.ID, cls)
		}
		seen[cls] = true
	}
	if len(seen) < 3 {
		t.Errorf("class mapping collapsed: only %v populated", seen)
	}
}

// TestCompiledReplayDoesNoLayoutResolution is the setup-cost sentinel
// regression test: an interpreted scenario run resolves class layouts
// (the counter must advance — proving the sentinel itself is live),
// while a compiled replay must perform exactly zero resolutions. A
// non-zero delta means setup work leaked back into the compiled
// dispatch loop — the regression TestCompiledSpeedupGate guards
// against, and the same class of bug as a scenario sweep that rebuilds
// the catalogue inside its timed region.
func TestCompiledReplayDoesNoLayoutResolution(t *testing.T) {
	s := attack.Catalog()[0]

	before := layout.Resolutions()
	if _, err := s.Run(defense.None); err != nil {
		t.Fatalf("interpreted run: %v", err)
	}
	if layout.Resolutions() == before {
		t.Fatal("sentinel is dead: an interpreted run advanced no layout resolutions")
	}

	sp, err := CompileScenario(s, defense.None)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	pool := mem.NewImagePool()
	before = layout.Resolutions()
	for i := 0; i < 5; i++ {
		if _, _, err := sp.Run(pool); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
	if delta := layout.Resolutions() - before; delta != 0 {
		t.Fatalf("compiled replay performed %d layout resolutions, want 0", delta)
	}
}

// measureNS times fn adaptively until the run spans minSpan and
// returns nanoseconds per call.
func measureNS(t *testing.T, what string, minSpan time.Duration, fn func() error) int64 {
	t.Helper()
	for iters := 1; ; iters *= 2 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		if elapsed := time.Since(start); elapsed >= minSpan || iters >= 1<<20 {
			return elapsed.Nanoseconds() / int64(iters)
		}
	}
}

// TestCompiledSpeedupGate holds the compiled tier to its contract. Every
// catalogue scenario is compiled under defense.None against one
// prewarmed image pool before anything is timed. Then, in each of
// speedupRounds rounds, each scenario's interpreted run and compiled
// replay are timed back to back, and each keeps its best round. The
// aggregate Σinterpreted/Σcompiled must reach minCompiledSpeedup, and
// the compiled timings must perform zero layout resolutions: compiled
// programs carry preresolved offsets, so any resolution there is setup
// cost leaking into the measurement.
//
// Both paths are single-goroutine, and the timings run with GOMAXPROCS
// at 1, so each path's garbage collection is charged to its own wall
// clock. With two Ps the collector of the allocation-heavy compiled
// replay runs on the second CPU when it is idle and competes for it
// when another test binary holds it; on a 2-CPU machine that moved the
// aggregate between 4x and 8x from run to run.
func TestCompiledSpeedupGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pool := mem.NewImagePool()
	if err := pool.Prewarm(mem.ImageConfig{}, mem.ImageConfig{ExecStack: true}); err != nil {
		t.Fatal(err)
	}
	cfg := defense.None
	cfg.Pool = pool
	cat := attack.Catalog()
	progs := make([]*ScenarioProgram, len(cat))
	for i, s := range cat {
		sp, err := CompileScenario(s, cfg)
		if err != nil {
			t.Fatalf("compile %s: %v", s.ID, err)
		}
		progs[i] = sp
	}

	const speedupRounds, minSpan = 3, 10 * time.Millisecond
	interp := make([]int64, len(cat))
	compiled := make([]int64, len(cat))
	var resolutions uint64
	for r := 0; r < speedupRounds; r++ {
		for i, s := range cat {
			in := measureNS(t, "interpreted "+s.ID, minSpan, func() error {
				_, err := s.Run(cfg)
				return err
			})
			res0 := layout.Resolutions()
			cn := measureNS(t, "compiled "+s.ID, minSpan, func() error {
				_, _, err := progs[i].Run(pool)
				return err
			})
			resolutions += layout.Resolutions() - res0
			if r == 0 || in < interp[i] {
				interp[i] = in
			}
			if r == 0 || cn < compiled[i] {
				compiled[i] = cn
			}
		}
	}

	type split struct {
		scenarios        int
		interpNS, compNS int64
	}
	classes := map[string]*split{}
	var total split
	for i, s := range cat {
		cls := scenarioClass(s.ID)
		if classes[cls] == nil {
			classes[cls] = &split{}
		}
		for _, sp := range []*split{classes[cls], &total} {
			sp.scenarios++
			sp.interpNS += interp[i]
			sp.compNS += compiled[i]
		}
	}
	names := make([]string, 0, len(classes))
	for cls := range classes {
		names = append(names, cls)
	}
	sort.Strings(names)
	for _, cls := range names {
		c := classes[cls]
		t.Logf("%-9s %2d scenarios: interpreted %9d ns, compiled %8d ns, %5.1fx",
			cls, c.scenarios, c.interpNS, c.compNS, float64(c.interpNS)/float64(c.compNS))
	}
	speedup := float64(total.interpNS) / float64(total.compNS)
	t.Logf("TOTAL     %2d scenarios: interpreted %9d ns, compiled %8d ns, %5.1fx",
		total.scenarios, total.interpNS, total.compNS, speedup)

	if resolutions != 0 {
		t.Fatalf("%d layout resolutions inside the compiled timings, want 0: setup leaked into the measurement", resolutions)
	}
	if speedup < minCompiledSpeedup {
		t.Fatalf("aggregate compiled speedup %.2fx, want at least %.1fx", speedup, minCompiledSpeedup)
	}
}
