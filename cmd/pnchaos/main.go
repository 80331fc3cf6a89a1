// Command pnchaos replays the attack x defense matrix under
// deterministic fault injection with supervised crash recovery — the
// chaos campaign (experiment E19).
//
// Usage:
//
//	pnchaos [--seed N] [--runs N] [--faults kinds] [--prob p]
//	        [--attempts n] [--max-faults n]
//	        [--scenario id,...|all] [--defense name,...|all]
//	        [--table] [--no-verify]
//
// Output is a deterministic JSON report by default: two invocations
// with the same flags produce byte-identical bytes, which is the
// campaign's reproducibility contract. --table renders the human
// summary instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pnchaos:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pnchaos", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "campaign seed; equal seeds give byte-identical reports")
	runs := fs.Int("runs", 3, "seeded replays of the matrix")
	faults := fs.String("faults", "all", "fault kinds to inject (comma list: bitflip,dropwrite,tornwrite,permfault,unmap; or all)")
	prob := fs.Float64("prob", 0.005, "per-access injection probability")
	attempts := fs.Int("attempts", 4, "bounded retry: attempts per job")
	maxFaults := fs.Int("max-faults", 3, "fault budget per job (-1 = unlimited)")
	scenario := fs.String("scenario", "all", "scenario ids (comma list) or all")
	defName := fs.String("defense", "all", "defense names (comma list) or all")
	table := fs.Bool("table", false, "print a human-readable summary table instead of JSON")
	noVerify := fs.Bool("no-verify", false, "skip the internal determinism replay check")
	if err := fs.Parse(args); err != nil {
		return err
	}

	kinds, err := chaos.ParseKinds(*faults)
	if err != nil {
		return err
	}
	cfg := experiments.ChaosConfig{
		Seed:            *seed,
		Runs:            *runs,
		Prob:            *prob,
		Kinds:           kinds,
		MaxAttempts:     *attempts,
		MaxFaultsPerJob: *maxFaults,
		Scenarios:       splitList(*scenario),
		Defenses:        splitList(*defName),
		SkipReplayCheck: *noVerify,
	}

	rep, err := experiments.RunChaosCampaign(cfg, experiments.Instrument{})
	if err != nil {
		return err
	}

	if *table {
		printSummary(out, rep)
	} else {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}

	if !rep.Deterministic {
		return fmt.Errorf("determinism violated: replay of run 0 diverged from its first execution (seed %d)", rep.Seed)
	}
	return nil
}

// splitList parses a comma list; "all" or "" selects everything (nil).
func splitList(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func printSummary(out io.Writer, rep *experiments.ChaosReport) {
	t := report.NewTable(
		fmt.Sprintf("Chaos campaign (seed %d): %d scenarios x %d defenses x %d runs",
			rep.Seed, len(rep.Scenarios), len(rep.Defenses), rep.Runs),
		"quantity", "value")
	t.AddRow("fault kinds", rep.Kinds)
	t.AddRow("injection probability", strconv.FormatFloat(rep.Prob, 'g', -1, 64))
	t.AddRow("injected-fault crashes", strconv.Itoa(rep.TotalCrashes))
	t.AddRow("jobs recovered by retry", strconv.Itoa(rep.RecoveredJobs))
	t.AddRow("jobs dead after retries", strconv.Itoa(rep.DeadJobs))
	t.AddRow("deterministic (replay check)", boolWord(rep.Deterministic))
	t.AddRow("campaign digest", rep.Digest)
	for _, rr := range rep.RunReports {
		t.AddRow(fmt.Sprintf("run %d", rr.Run),
			fmt.Sprintf("digest %s  recovered %d  dead %d", rr.Digest[:16], rr.Recovered, rr.Dead))
	}
	fmt.Fprint(out, t.String())

	if rep.Partial != nil {
		pt := report.NewTable("\n"+rep.Partial.Title, rep.Partial.Headers...)
		for _, r := range rep.Partial.Rows {
			pt.AddRow(r...)
		}
		fmt.Fprint(out, pt.String())
	}
}

func boolWord(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
