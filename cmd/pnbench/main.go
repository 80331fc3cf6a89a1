// Command pnbench regenerates the experiment tables indexed in
// EXPERIMENTS.md.
//
// Usage:
//
//	pnbench [-exp E1|E2|...|all] [-markdown | -csv]
//	pnbench -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pnbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pnbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (E1..E17) or all")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavoured Markdown tables")
	csv := fs.Bool("csv", false, "emit CSV (one table per experiment, title omitted)")
	list := fs.Bool("list", false, "list experiments")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprint(out, experiments.ListTable().String())
		return nil
	}

	var selected []experiments.Experiment
	if *exp == "all" {
		selected = experiments.All()
	} else {
		e, err := experiments.ByID(*exp)
		if err != nil {
			return err
		}
		selected = []experiments.Experiment{e}
	}
	for i, e := range selected {
		t, err := e.Run(experiments.Instrument{})
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if i > 0 {
			fmt.Fprintln(out)
		}
		switch {
		case *markdown:
			fmt.Fprint(out, t.Markdown())
		case *csv:
			fmt.Fprint(out, t.CSV())
		default:
			fmt.Fprint(out, t.String())
		}
	}
	return nil
}
