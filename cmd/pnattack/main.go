// Command pnattack runs the paper's attack scenarios against a simulated
// victim process under a chosen defense configuration.
//
// Usage:
//
//	pnattack [-scenario id|all] [-defense name|all] [-timeout d] [-v]
//	pnattack -list
//
// With -defense all it prints the full §5 attack x defense matrix
// (experiment E15).
//
// Scenario execution is supervised: every batch carries a deadline (the
// -timeout flag). A batch checks it before each scenario and stops at
// the first one after it has passed; a single scenario is checked when
// it returns. A batch that overran its deadline, or an unexpected
// infrastructure fault, exits nonzero with a structured one-line error
// (scenario=... defense=... status=... fault=...).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/resilience"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pnattack:", err)
		os.Exit(1)
	}
}

// scenarioError is the structured one-line failure report for a
// scenario that returned an unexpected fault, panicked, or timed out.
type scenarioError struct {
	scenario string
	defense  string
	res      *resilience.Result
}

func (e *scenarioError) Error() string {
	msg := fmt.Sprintf("scenario=%s defense=%s status=%s", e.scenario, e.defense, e.res.Status)
	if n := len(e.res.Crashes); n > 0 {
		last := e.res.Crashes[n-1]
		msg += fmt.Sprintf(" kind=%s", last.Kind)
		if last.FaultKind != "" {
			msg += fmt.Sprintf(" fault=%s fault_addr=%#x", last.FaultKind, last.FaultAddr)
		}
		msg += fmt.Sprintf(" err=%q", last.Message)
	} else if e.res.Err != "" {
		msg += fmt.Sprintf(" err=%q", e.res.Err)
	}
	return msg
}

// supervised runs fn on the calling goroutine under a single-attempt
// supervisor and unwraps the typed result. fn gets a ctx that ends at
// timeout; a run that returns after it is reported as status=timeout.
func supervised[T any](scenarioID, defenseName string, timeout time.Duration, fn func(ctx context.Context) (T, error)) (T, error) {
	var zero T
	sup := resilience.NewSupervisor(resilience.Policy{Timeout: timeout, MaxAttempts: 1})
	res := sup.Run(resilience.Job{
		ID: scenarioID + "/" + defenseName,
		Run: func(ctx context.Context, attempt int) (any, error) {
			return fn(ctx)
		},
	})
	if res.Status != resilience.StatusOK {
		return zero, &scenarioError{scenario: scenarioID, defense: defenseName, res: res}
	}
	return res.Value.(T), nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pnattack", flag.ContinueOnError)
	scenario := fs.String("scenario", "all", "scenario id (see -list) or all")
	defName := fs.String("defense", "none", "defense configuration name or all")
	timeout := fs.Duration("timeout", 30*time.Second, "deadline per supervised scenario batch, checked before each scenario; a batch that overran it exits 1 with status=timeout")
	verbose := fs.Bool("v", false, "print per-scenario details and metrics")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON outcomes")
	list := fs.Bool("list", false, "list scenarios and defenses")
	explain := fs.String("explain", "", "print methodology notes and defense outcomes for one scenario")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *explain != "" {
		return explainScenario(out, *explain)
	}

	if *list {
		t := report.NewTable("Attack scenarios", "id", "paper ref", "title")
		for _, s := range attack.Catalog() {
			t.AddRow(s.ID, s.Ref, s.Title)
		}
		fmt.Fprint(out, t.String(), "\n")
		d := report.NewTable("Defense configurations", "name")
		for _, c := range defense.Catalog() {
			d.AddRow(c.Name)
		}
		fmt.Fprint(out, d.String())
		return nil
	}

	if *defName == "all" {
		configs := defense.Catalog()
		matrix, err := supervised(*scenario, "all", *timeout, func(ctx context.Context) (map[string]map[string]*attack.Outcome, error) {
			return attack.RunMatrix(ctx, configs)
		})
		if err != nil {
			return err
		}
		headers := []string{"scenario"}
		for _, c := range configs {
			headers = append(headers, c.Name)
		}
		t := report.NewTable("Attack x defense matrix (E15)", headers...)
		for _, s := range attack.Catalog() {
			if *scenario != "all" && s.ID != *scenario {
				continue
			}
			row := []string{s.ID}
			for _, c := range configs {
				row = append(row, matrix[s.ID][c.Name].Status())
			}
			t.AddRow(row...)
		}
		fmt.Fprint(out, t.String(), "\n")
		fmt.Fprint(out, experiments.MatrixSummary(matrix, configs).String())
		return nil
	}

	cfg, err := findDefense(*defName)
	if err != nil {
		return err
	}
	var outcomes []*attack.Outcome
	if *scenario == "all" {
		outcomes, err = supervised("all", cfg.Name, *timeout, func(ctx context.Context) ([]*attack.Outcome, error) {
			return attack.RunAll(ctx, cfg)
		})
		if err != nil {
			return err
		}
	} else {
		s, err := attack.ByID(*scenario)
		if err != nil {
			return err
		}
		o, err := supervised(s.ID, cfg.Name, *timeout, func(context.Context) (*attack.Outcome, error) {
			return s.Run(cfg)
		})
		if err != nil {
			return err
		}
		outcomes = append(outcomes, o)
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(outcomes)
	}

	t := report.NewTable(fmt.Sprintf("Outcomes under defense %q", cfg.Name),
		"scenario", "status", "prevented by", "detected by")
	for _, o := range outcomes {
		t.AddRow(o.Scenario, o.Status(), o.PreventedBy, o.DetectedBy)
	}
	fmt.Fprint(out, t.String())
	if *verbose {
		for _, o := range outcomes {
			fmt.Fprintf(out, "\n%s:\n", o.Scenario)
			for _, d := range o.Details {
				fmt.Fprintf(out, "  %s\n", d)
			}
			for k, v := range o.Metrics {
				fmt.Fprintf(out, "  metric %s = %s\n", k, strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
	}
	return nil
}

// explainScenario prints the methodology notes for one scenario and its
// live outcome under every defense configuration.
func explainScenario(out io.Writer, id string) error {
	s, err := attack.ByID(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s — %s\n%s\n\n", s.ID, s.Ref, s.Title)
	if m := attack.Methodology(id); m != "" {
		fmt.Fprintln(out, m)
		fmt.Fprintln(out)
	}
	t := report.NewTable("Outcome under each defense", "defense", "status", "by")
	for _, cfg := range defense.Catalog() {
		o, err := s.Run(cfg)
		if err != nil {
			return err
		}
		by := o.PreventedBy
		if by == "" {
			by = o.DetectedBy
		}
		t.AddRow(cfg.Name, o.Status(), by)
	}
	fmt.Fprint(out, t.String())
	return nil
}

func findDefense(name string) (defense.Config, error) {
	for _, c := range defense.Catalog() {
		if c.Name == name {
			return c, nil
		}
	}
	return defense.Config{}, fmt.Errorf("unknown defense %q (try -list)", name)
}
