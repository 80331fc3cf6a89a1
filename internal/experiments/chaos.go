package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/attack"
	"repro/internal/chaos"
	"repro/internal/defense"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/resilience"
)

// ChaosConfig parameterises a chaos campaign: the attack x defense
// matrix replayed N seeded times under injected faults, with every job
// supervised and restartable.
type ChaosConfig struct {
	// Seed drives every derived per-job fault schedule.
	Seed int64
	// Runs is the number of seeded replays of the matrix (default 3).
	Runs int
	// Prob is the per-access injection probability (default 0.005).
	Prob float64
	// Kinds restricts the injected fault kinds (default all).
	Kinds []chaos.Kind
	// MaxFaultsPerJob bounds each job's fault budget so bounded retry
	// can converge (default 3; 0 keeps the default — use a negative
	// value for a genuinely unlimited budget).
	MaxFaultsPerJob int
	// MaxAttempts is the per-job retry bound (default 4).
	MaxAttempts int
	// BreakerThreshold opens the crash-loop breaker after that many
	// consecutive dead jobs (default 8).
	BreakerThreshold int
	// Scenarios/Defenses restrict the matrix; empty selects the full
	// attack.Catalog() x defense.Catalog() cross.
	Scenarios []string
	Defenses  []string
	// SkipReplayCheck disables the internal determinism self-check
	// (replaying run 0 and comparing digests). The check doubles one
	// run's cost; campaigns embedded in other experiments may skip it.
	SkipReplayCheck bool
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	out := c
	if out.Runs <= 0 {
		out.Runs = 3
	}
	if out.Prob <= 0 {
		out.Prob = 0.005
	}
	if len(out.Kinds) == 0 {
		out.Kinds = chaos.AllKinds()
	}
	switch {
	case out.MaxFaultsPerJob == 0:
		out.MaxFaultsPerJob = 3
	case out.MaxFaultsPerJob < 0:
		out.MaxFaultsPerJob = 0 // unlimited
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 4
	}
	if out.BreakerThreshold <= 0 {
		out.BreakerThreshold = 8
	}
	return out
}

// ChaosCell is the outcome of one (scenario, defense) job within one
// chaos run. Every field is deterministic under a fixed campaign seed.
type ChaosCell struct {
	Scenario string `json:"scenario"`
	Defense  string `json:"defense"`
	// Status is the attack outcome's one-word status when the job
	// survived, or "dead" when the supervisor gave up on it.
	Status string `json:"status"`
	// Supervisor is the job's supervised state (ok/failed/timeout/
	// breaker-skipped).
	Supervisor string `json:"supervisor"`
	Attempts   int    `json:"attempts"`
	// Accesses and InjectedFaults summarise the injector transcript.
	Accesses       int `json:"accesses"`
	InjectedFaults int `json:"injected_faults"`
	// Crashes are the structured records of every recovered crash.
	Crashes []resilience.CrashRecord `json:"crashes,omitempty"`
}

// ChaosRunReport is one seeded replay of the matrix.
type ChaosRunReport struct {
	Run   int         `json:"run"`
	Cells []ChaosCell `json:"cells"`
	// Digest is the SHA-256 of the run's canonical JSON cells — the
	// byte-identity token the determinism contract is stated in.
	Digest string `json:"digest"`
	// Recovered counts crashes that were recovered by retry (the job
	// finished ok after at least one crash); Dead counts jobs the
	// supervisor gave up on.
	Recovered int `json:"recovered"`
	Dead      int `json:"dead"`
}

// ChaosReport is the whole campaign.
type ChaosReport struct {
	Seed      int64    `json:"seed"`
	Runs      int      `json:"runs"`
	Prob      float64  `json:"prob"`
	Kinds     string   `json:"kinds"`
	Scenarios []string `json:"scenarios"`
	Defenses  []string `json:"defenses"`

	RunReports []ChaosRunReport `json:"run_reports"`
	// Digest hashes all run digests: the campaign's identity.
	Digest string `json:"digest"`
	// Deterministic reports the internal replay self-check: run 0
	// executed twice produced byte-identical cells. Always true unless
	// SkipReplayCheck was set (then it is vacuously true).
	Deterministic bool `json:"deterministic"`
	// TotalCrashes / RecoveredJobs / DeadJobs aggregate the runs.
	TotalCrashes  int `json:"total_crashes"`
	RecoveredJobs int `json:"recovered_jobs"`
	DeadJobs      int `json:"dead_jobs"`
	// Partial, when some jobs died, is the degraded partial table of
	// the last run — the graceful-degradation artifact.
	Partial *report.TableData `json:"partial,omitempty"`
}

// resolveScenarios maps ids to scenarios, defaulting to the catalogue.
func resolveScenarios(ids []string) ([]attack.Scenario, error) {
	if len(ids) == 0 {
		return attack.Catalog(), nil
	}
	var out []attack.Scenario
	for _, id := range ids {
		s, err := attack.ByID(id)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// resolveDefenses maps names to configs, defaulting to the catalogue.
func resolveDefenses(names []string) ([]defense.Config, error) {
	if len(names) == 0 {
		return defense.Catalog(), nil
	}
	byName := map[string]defense.Config{}
	for _, c := range defense.Catalog() {
		byName[c.Name] = c
	}
	var out []defense.Config
	for _, n := range names {
		c, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown defense %q", n)
		}
		out = append(out, c)
	}
	return out, nil
}

// RunChaosCampaign executes the campaign: for each of cfg.Runs seeded
// replays, every (scenario, defense) cell runs as a supervised job with
// a derived deterministic fault schedule. Crashed attempts are rolled
// back to the pre-run checkpoint (and the rollback verified against the
// whole-image diff) before retrying; jobs that exhaust their retries
// degrade to "dead" cells rather than failing the campaign. in reaches
// every process, supervised attempt and injected fault.
func RunChaosCampaign(cfg ChaosConfig, in Instrument) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	scenarios, err := resolveScenarios(cfg.Scenarios)
	if err != nil {
		return nil, err
	}
	defenses, err := resolveDefenses(cfg.Defenses)
	if err != nil {
		return nil, err
	}

	rep := &ChaosReport{
		Seed: cfg.Seed, Runs: cfg.Runs, Prob: cfg.Prob,
		Kinds:         chaos.KindNames(cfg.Kinds),
		Deterministic: true,
	}
	for _, s := range scenarios {
		rep.Scenarios = append(rep.Scenarios, s.ID)
	}
	for _, d := range defenses {
		rep.Defenses = append(rep.Defenses, d.Name)
	}

	var lastResults []*resilience.Result
	for r := 0; r < cfg.Runs; r++ {
		runRep, results, err := executeChaosRun(cfg, in, r, scenarios, defenses)
		if err != nil {
			return nil, err
		}
		rep.RunReports = append(rep.RunReports, runRep)
		rep.RecoveredJobs += runRep.Recovered
		rep.DeadJobs += runRep.Dead
		for _, c := range runRep.Cells {
			rep.TotalCrashes += len(c.Crashes)
		}
		lastResults = results
	}

	if !cfg.SkipReplayCheck && len(rep.RunReports) > 0 {
		replay, _, err := executeChaosRun(cfg, in, 0, scenarios, defenses)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos replay check: %w", err)
		}
		rep.Deterministic = replay.Digest == rep.RunReports[0].Digest
	}

	h := sha256.New()
	for _, rr := range rep.RunReports {
		h.Write([]byte(rr.Digest))
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))

	if rep.DeadJobs > 0 && lastResults != nil {
		data := resilience.PartialTable("chaos campaign — degraded partial results (last run)", lastResults).Data()
		rep.Partial = &data
	}
	return rep, nil
}

// executeChaosRun replays the matrix once under run index r's derived
// schedules and returns the run report plus the raw supervised results
// (for the degraded partial table).
func executeChaosRun(cfg ChaosConfig, in Instrument, r int, scenarios []attack.Scenario, defenses []defense.Config) (ChaosRunReport, []*resilience.Result, error) {
	pol := resilience.Policy{
		MaxAttempts:      cfg.MaxAttempts,
		BreakerThreshold: cfg.BreakerThreshold,
		// Chaos jobs are microseconds long; backoff would only slow
		// the campaign without changing its deterministic outcome.
		Backoff: 0,
	}
	// With a collector, supervised attempts become retry spans and
	// crash counters.
	if in.Collector != nil {
		pol.Observer = in.Collector
	}
	sup := resilience.NewSupervisor(pol)
	runRep := ChaosRunReport{Run: r}

	for _, s := range scenarios {
		for _, d := range defenses {
			cell, err := runChaosCell(cfg, in, sup, r, s, d)
			if err != nil {
				return ChaosRunReport{}, nil, err
			}
			runRep.Cells = append(runRep.Cells, cell)
			switch {
			case cell.Supervisor == string(resilience.StatusOK) && len(cell.Crashes) > 0:
				runRep.Recovered++
			case cell.Supervisor != string(resilience.StatusOK):
				runRep.Dead++
			}
		}
	}

	blob, err := json.Marshal(runRep.Cells)
	if err != nil {
		return ChaosRunReport{}, nil, fmt.Errorf("experiments: chaos digest: %w", err)
	}
	sum := sha256.Sum256(blob)
	runRep.Digest = hex.EncodeToString(sum[:])
	return runRep, sup.Results(), nil
}

// runChaosCell executes one supervised (scenario, defense) job.
func runChaosCell(cfg ChaosConfig, in Instrument, sup *resilience.Supervisor, r int, s attack.Scenario, d defense.Config) (ChaosCell, error) {
	jobID := s.ID + "/" + d.Name
	inj := chaos.New(chaos.Config{
		Seed:      chaos.DeriveSeed(cfg.Seed, strconv.Itoa(r), s.ID, d.Name),
		Prob:      cfg.Prob,
		Kinds:     cfg.Kinds,
		MaxFaults: cfg.MaxFaultsPerJob,
		// Injected permission/unmap faults arrive as synchronous
		// signals (panics): the supervisor, not the scenario, must
		// catch them — exactly the SIGSEGV -> core dump path.
		PanicOnFault: true,
		OnInject:     in.Collector.ChaosHook(),
	})

	// The scenario builds its own process(es); the OnProcess seam
	// captures each one, arms the injector on it, and checkpoints the
	// pristine pre-run image for crash rollback. The checkpoint is
	// copy-on-write: capture costs O(pages) pointer operations, and a
	// crashed attempt rolls back (and byte-verifies) in O(dirty pages)
	// instead of re-copying the whole address space per trial.
	var curP *machine.Process
	var curCP *mem.Checkpoint
	dcfg := d // copy; the catalogue config stays pristine
	dcfg.OnProcess = func(p *machine.Process) {
		curP, curCP = p, p.CowCheckpoint()
		inj.Arm(p.Mem)
	}
	dcfg = in.config(dcfg)

	job := resilience.Job{
		ID: jobID,
		Run: func(ctx context.Context, attempt int) (any, error) {
			return s.Run(dcfg)
		},
		OnCrash: func(rec *resilience.CrashRecord) {
			if curP == nil || curCP == nil {
				return
			}
			// Roll the crashed image back to its pre-run state and
			// verify the rollback. Both legs use the dirty-page API:
			// restore swaps back only the pages the attempt dirtied,
			// and the verification diff skips every page still shared
			// with the checkpoint — it must come back empty.
			if err := curP.RestoreCheckpoint(curCP); err != nil {
				return
			}
			rec.Restored = true
			if diff, err := curP.Mem.DiffDirty(curCP); err == nil && len(diff) == 0 {
				rec.RestoreClean = true
			}
		},
	}

	res := sup.Run(job)
	cell := ChaosCell{
		Scenario:       s.ID,
		Defense:        d.Name,
		Supervisor:     string(res.Status),
		Attempts:       res.Attempts,
		Accesses:       inj.Accesses(),
		InjectedFaults: inj.Count(),
		Crashes:        res.Crashes,
	}
	if res.Status == resilience.StatusOK {
		o, ok := res.Value.(*attack.Outcome)
		if !ok {
			return ChaosCell{}, fmt.Errorf("experiments: job %s returned %T, want *attack.Outcome", jobID, res.Value)
		}
		cell.Status = o.Status()
	} else {
		cell.Status = "dead"
	}
	return cell, nil
}

// --- E19: the chaos campaign as an indexed experiment --------------------

// e19Scenarios is the representative subset E19 runs: attacks covering
// the stack, data/bss, heap, pointer-subterfuge, and leak families, so
// the campaign exercises every recovery path without E15's full cost.
var e19Scenarios = []string{
	"bss-overflow", "heap-overflow", "stack-ret", "vptr-bss",
	"array-2step-stack", "infoleak-array", "memleak",
}

func runE19(in Instrument) (*report.Table, error) {
	rep, err := RunChaosCampaign(ChaosConfig{
		Seed: 42, Runs: 2, Prob: 0.004,
		Scenarios: e19Scenarios,
	}, in)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E19 — chaos campaign: fault injection + supervised crash recovery",
		"quantity", "value")
	t.AddRow("matrix", fmt.Sprintf("%d scenarios x %d defenses x %d runs",
		len(rep.Scenarios), len(rep.Defenses), rep.Runs))
	t.AddRow("fault kinds", rep.Kinds)
	t.AddRow("injected-fault crashes", strconv.Itoa(rep.TotalCrashes))
	t.AddRow("jobs recovered by retry", strconv.Itoa(rep.RecoveredJobs))
	t.AddRow("jobs dead after retries", strconv.Itoa(rep.DeadJobs))
	t.AddRow("deterministic (replay check)", yesNo(rep.Deterministic))
	for _, rr := range rep.RunReports {
		t.AddRow(fmt.Sprintf("run %d digest", rr.Run), rr.Digest[:16]+"…")
	}
	return t, nil
}
