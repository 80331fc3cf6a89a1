// Package experiments regenerates every experiment indexed in
// EXPERIMENTS.md (E1–E18). Each experiment runs the relevant attack
// scenarios/analyzer passes and renders a table whose rows are the ones
// the paper reports informally in prose; cmd/pnbench prints them and the
// root bench_test.go times them.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/report"
)

// Experiment is one reproducible evaluation unit; Run takes its
// instrumentation (Instrument{} for a plain run).
type Experiment struct {
	ID    string
	Ref   string
	Title string
	Run   func(Instrument) (*report.Table, error)
}

// All returns the experiments in index order.
func All() []Experiment {
	return []Experiment{
		{"E1", "§3.5 L11", "data/bss overflow rewrites sibling object", runE1},
		{"E2", "§3.5.1 L12", "heap overflow rewrites adjacent buffer", runE2},
		{"E3", "§3.6.1 L13 + §5.2", "return-address indexing and canary bypass", runE3},
		{"E4", "§3.6.2", "arc injection vs code injection vs NX", runE4},
		{"E5", "§3.7.1 L14", "global variable overwrite", runE5},
		{"E6", "§3.7.2 L15", "local variable overwrite and padding index", runE6},
		{"E7", "§3.8.1 L16", "adjacent object member overwrite", runE7},
		{"E8", "§3.8.2", "vtable pointer subterfuge (bss and stack)", runE8},
		{"E9", "§3.9 L17", "function pointer subterfuge", runE9},
		{"E10", "§3.10 L18", "variable pointer subterfuge", runE10},
		{"E11", "§4.1–4.2 L19–20", "two-step array overflow (stack and bss)", runE11},
		{"E12", "§4.3 L21–22", "information leakage and sanitization", runE12},
		{"E13", "§4.4", "denial of service via loop-bound modification", runE13},
		{"E14", "§4.5 L23", "memory leak per iteration", runE14},
		{"E15", "§5", "attack x defense outcome matrix", runE15},
		{"E16", "§1/§5.1/§7", "static analyzer vs traditional baseline", runE16},
		{"E17", "§5.1", "defense overhead microbenchmarks", runE17},
		{"E18", "extension", "data-model generality (i386 / ILP32 / LP64)", runE18},
		{"E19", "extension", "chaos campaign: fault injection + supervised crash recovery", runE19},
	}
}

// runE18 is the generality ablation DESIGN.md calls out: the paper only
// evaluated a 32-bit gcc testbed; here key attacks run unchanged across
// three data models, with the leak arithmetic shifting exactly as the
// layouts do.
func runE18(in Instrument) (*report.Table, error) {
	models := []layout.Model{layout.ILP32i386, layout.ILP32, layout.LP64}
	headers := []string{"scenario"}
	for _, m := range models {
		headers = append(headers, m.Name)
	}
	t := report.NewTable("E18 — data-model generality (beyond the paper's 32-bit testbed)", headers...)

	for _, id := range []string{"bss-overflow", "stack-ret", "canary-skip", "vptr-bss", "array-2step-stack", "memleak"} {
		row := []string{id}
		for _, m := range models {
			cfg := defense.Config{Name: "none-" + m.Name, Model: m}
			o, err := run(in, id, cfg)
			if err != nil {
				return nil, err
			}
			cell := o.Status()
			if id == "memleak" {
				cell += " (" + fmtMetric(o, "leak_per_iteration") + "B/iter)"
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}

	// The size arithmetic underlying all of the above.
	student := layout.NewClass("E18Student").
		AddField("gpa", layout.Double).
		AddField("year", layout.Int).
		AddField("semester", layout.Int)
	grad := layout.NewClass("E18GradStudent", student).
		AddField("ssn", layout.ArrayOf(layout.Int, 3))
	sizes := func(cls *layout.Class) []string {
		row := []string{"sizeof(" + cls.Name()[3:] + ")"}
		for _, m := range models {
			l, err := layout.Of(cls, m)
			if err != nil {
				row = append(row, "?")
				continue
			}
			row = append(row, strconv.FormatUint(l.Size, 10))
		}
		return row
	}
	t.AddRow(sizes(student)...)
	t.AddRow(sizes(grad)...)
	return t, nil
}

// ByID resolves an experiment. It is the single lookup path every
// entry point (pnbench, pntrace, pnscan, pnserve) uses, so the
// unknown-ID error text is consistent across all cmds.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// ListTable renders the catalogue as the standard listing table the
// cmds print for -list, so every entry point shows the same columns.
func ListTable() *report.Table {
	t := report.NewTable("Experiments", "id", "paper ref", "title")
	for _, e := range All() {
		t.AddRow(e.ID, e.Ref, e.Title)
	}
	return t
}

func run(in Instrument, id string, cfg defense.Config) (*attack.Outcome, error) {
	s, err := attack.ByID(id)
	if err != nil {
		return nil, err
	}
	if in.Collector != nil {
		sp := in.Collector.Tracer.Start(obs.CatScenario, id, obs.A("defense", cfg.Name))
		defer sp.Close()
	}
	return s.Run(in.config(cfg))
}

func fmtMetric(o *attack.Outcome, key string) string {
	v, ok := o.Metrics[key]
	if !ok {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func runE1(in Instrument) (*report.Table, error) {
	o, err := run(in, "bss-overflow", defense.None)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E1 — §3.5 Listing 11: bss overflow (stud1 -> stud2.gpa)",
		"quantity", "paper", "measured")
	t.AddRow("attack succeeds", "yes", yesNo(o.Succeeded))
	t.AddRow("stud2.gpa after attack", "attacker value", fmtMetric(o, "stud2_gpa_after"))
	t.AddRow("ssn word hitting stud2.gpa", "ssn[0] (adjacent)", "ssn["+fmtMetric(o, "ssn_index")+"]")
	return t, nil
}

func runE2(in Instrument) (*report.Table, error) {
	o, err := run(in, "heap-overflow", defense.None)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E2 — §3.5.1 Listing 12: heap overflow (ssn[] -> name)",
		"quantity", "paper", "measured")
	t.AddRow("name buffer rewritten", "yes (before/after demo)", yesNo(o.Succeeded))
	t.AddRow("allocator metadata corrupted", "n/a (libc-dependent)", yesNo(o.Metrics["heap_metadata_corrupt"] == 1))
	return t, nil
}

func runE3(in Instrument) (*report.Table, error) {
	t := report.NewTable("E3 — §3.6.1 Listing 13: which ssn[i] hits the return address",
		"frame configuration", "paper index", "measured index", "outcome")
	cases := []struct {
		name  string
		cfg   defense.Config
		paper string
	}{
		{"no saved FP, no canary", defense.Config{Name: "plain", NoSaveFP: true}, "ssn[0]"},
		{"saved FP", defense.None, "ssn[1]"},
		{"saved FP + canary", defense.StackGuardOnly, "ssn[2]"},
	}
	for _, c := range cases {
		o, err := run(in, "stack-ret", c.cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.name, c.paper, "ssn["+fmtMetric(o, "ret_ssn_index")+"]", o.Status())
	}
	o, err := run(in, "canary-skip", defense.StackGuardOnly)
	if err != nil {
		return nil, err
	}
	t.AddRow("canary skip (§5.2)", "bypasses StackGuard", "writes only ssn["+fmtMetric(o, "written_index")+"]", o.Status())
	return t, nil
}

func runE4(in Instrument) (*report.Table, error) {
	t := report.NewTable("E4 — §3.6.2: arc injection and code injection",
		"attack", "stack", "paper", "measured")
	o, err := run(in, "arc-injection", defense.None)
	if err != nil {
		return nil, err
	}
	t.AddRow("arc injection (ret2libc)", "any", "privileged call", o.Status())
	o, err = run(in, "code-injection", defense.None)
	if err != nil {
		return nil, err
	}
	t.AddRow("code injection", "executable", "shell spawned", o.Status())
	o, err = run(in, "code-injection", defense.NXOnly)
	if err != nil {
		return nil, err
	}
	t.AddRow("code injection", "NX", "blocked", o.Status())
	o, err = run(in, "arc-injection", defense.NXOnly)
	if err != nil {
		return nil, err
	}
	t.AddRow("arc injection (ret2libc)", "NX", "still succeeds", o.Status())
	return t, nil
}

func runE5(in Instrument) (*report.Table, error) {
	o, err := run(in, "var-bss", defense.None)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E5 — §3.7.1 Listing 14: global noOfStudents overwrite",
		"quantity", "paper", "measured")
	t.AddRow("attack succeeds", "yes", yesNo(o.Succeeded))
	t.AddRow("noOfStudents after", "attacker value", fmtMetric(o, "noOfStudents_after"))
	return t, nil
}

func runE6(in Instrument) (*report.Table, error) {
	o, err := run(in, "var-stack", defense.None)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E6 — §3.7.2 Listing 15: local n overwrite (padding arithmetic)",
		"quantity", "paper", "measured")
	t.AddRow("attack succeeds", "yes", yesNo(o.Succeeded))
	t.AddRow("ssn word hitting n", "ssn[1] (8-aligned double) / ssn[0] (i386)", "ssn["+fmtMetric(o, "n_ssn_index")+"]")
	t.AddRow("n after attack", "attacker value", fmtMetric(o, "n_after"))
	return t, nil
}

func runE7(in Instrument) (*report.Table, error) {
	o, err := run(in, "member-var", defense.None)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E7 — §3.8.1 Listing 16: first.gpa overwrite",
		"quantity", "paper", "measured")
	t.AddRow("attack succeeds", "yes", yesNo(o.Succeeded))
	t.AddRow("first.gpa after", "attacker value (4.0)", fmtMetric(o, "first_gpa_after"))
	return t, nil
}

func runE8(in Instrument) (*report.Table, error) {
	t := report.NewTable("E8 — §3.8.2: vtable pointer subterfuge",
		"variant", "paper", "measured")
	o, err := run(in, "vptr-bss", defense.None)
	if err != nil {
		return nil, err
	}
	t.AddRow("via data/bss overflow", "arbitrary method invoked", o.Status())
	o, err = run(in, "vptr-stack", defense.None)
	if err != nil {
		return nil, err
	}
	t.AddRow("via stack overflow", "arbitrary method invoked", o.Status())
	return t, nil
}

func runE9(in Instrument) (*report.Table, error) {
	o, err := run(in, "funcptr", defense.None)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E9 — §3.9 Listing 17: function pointer subterfuge",
		"quantity", "paper", "measured")
	t.AddRow("never-invoked pointer called", "yes", yesNo(o.Succeeded))
	return t, nil
}

func runE10(in Instrument) (*report.Table, error) {
	o, err := run(in, "varptr", defense.None)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E10 — §3.10 Listing 18: variable pointer subterfuge",
		"quantity", "paper", "measured")
	t.AddRow("write redirected to attacker address", "yes", yesNo(o.Succeeded))
	return t, nil
}

func runE11(in Instrument) (*report.Table, error) {
	t := report.NewTable("E11 — §4.1–4.2 Listings 19–20: two-step array overflow",
		"variant", "paper", "measured", "n_unames after")
	o, err := run(in, "array-2step-stack", defense.None)
	if err != nil {
		return nil, err
	}
	t.AddRow("stack pool", "return address smashed", o.Status(), fmtMetric(o, "n_unames_after"))
	o, err = run(in, "array-2step-bss", defense.None)
	if err != nil {
		return nil, err
	}
	t.AddRow("global pool", "globals beyond pool smashed", o.Status(), fmtMetric(o, "n_unames_after"))
	return t, nil
}

func runE12(in Instrument) (*report.Table, error) {
	t := report.NewTable("E12 — §4.3 Listings 21–22: information leakage",
		"variant", "defense", "paper", "leaked")
	o, err := run(in, "infoleak-array", defense.None)
	if err != nil {
		return nil, err
	}
	t.AddRow("password file via array", "none", "remnants disclosed", fmtMetric(o, "leaked_bytes")+" bytes")
	o, err = run(in, "infoleak-array", defense.SanitizeOnly)
	if err != nil {
		return nil, err
	}
	t.AddRow("password file via array", "sanitize (§5.1)", "0", fmtMetric(o, "leaked_bytes")+" bytes")
	o, err = run(in, "infoleak-object", defense.None)
	if err != nil {
		return nil, err
	}
	t.AddRow("SSN via object reuse", "none", "SSN disclosed", fmtMetric(o, "ssn_recovered")+"/3 words")
	o, err = run(in, "infoleak-object", defense.SanitizeOnly)
	if err != nil {
		return nil, err
	}
	t.AddRow("SSN via object reuse", "sanitize (§5.1)", "0", fmtMetric(o, "ssn_recovered")+"/3 words")
	return t, nil
}

func runE13(in Instrument) (*report.Table, error) {
	o, err := run(in, "dos-loop", defense.None)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E13 — §4.4: DoS via loop-bound modification",
		"quantity", "paper", "measured")
	t.AddRow("loop amplification", "\"iterated for a long time\"", fmtMetric(o, "amplification")+"x")
	t.AddRow("validation bypass (n -> 0)", "\"never taken\"", yesNo(o.Metrics["validation_bypassed"] == 1))
	return t, nil
}

func runE14(in Instrument) (*report.Table, error) {
	t := report.NewTable("E14 — §4.5 Listing 23: memory leak per iteration",
		"defense", "paper", "measured leak/iteration")
	o, err := run(in, "memleak", defense.None)
	if err != nil {
		return nil, err
	}
	t.AddRow("none", "sizeof(GradStudent)-sizeof(Student) = "+fmtMetric(o, "expected_per_iteration"),
		fmtMetric(o, "leak_per_iteration"))
	o, err = run(in, "memleak", defense.DeleteOnly)
	if err != nil {
		return nil, err
	}
	t.AddRow("placement delete (§5.1)", "0", fmtMetric(o, "leak_per_iteration"))
	return t, nil
}

func runE15(in Instrument) (*report.Table, error) {
	configs := defense.Catalog()
	for i := range configs {
		configs[i] = in.config(configs[i])
	}
	matrix, err := attack.RunMatrix(context.Background(), configs)
	if err != nil {
		return nil, err
	}
	headers := []string{"scenario (paper ref)"}
	for _, c := range configs {
		headers = append(headers, c.Name)
	}
	t := report.NewTable("E15 — §5: attack x defense outcome matrix", headers...)
	for _, s := range attack.Catalog() {
		row := []string{s.ID + " (" + s.Ref + ")"}
		for _, c := range configs {
			row = append(row, matrix[s.ID][c.Name].Status())
		}
		t.AddRow(row...)
	}
	return t, nil
}

// MatrixSummary counts outcomes per defense across the full matrix — the
// aggregate EXPERIMENTS.md reports next to the E15 table.
func MatrixSummary(matrix map[string]map[string]*attack.Outcome, configs []defense.Config) *report.Table {
	t := report.NewTable("E15 summary — successful attacks per defense",
		"defense", "SUCCESS", "prevented", "detected", "crashed", "no-effect")
	for _, c := range configs {
		counts := map[string]int{}
		var ids []string
		for id := range matrix {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			counts[matrix[id][c.Name].Status()]++
		}
		t.AddRow(c.Name,
			strconv.Itoa(counts["SUCCESS"]), strconv.Itoa(counts["prevented"]),
			strconv.Itoa(counts["detected"]), strconv.Itoa(counts["crashed"]),
			strconv.Itoa(counts["no-effect"]))
	}
	return t
}
