// Command pnscan runs the placement-new static analyzer (and optionally
// the traditional baseline scanner) over mini-C++ sources.
//
// Usage:
//
//	pnscan [-baseline] [-model ilp32|i386|lp64] file.cpp...
//	pnscan -corpus
//
// -corpus analyses the embedded listing corpus and prints the E16
// comparison table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analyzer"
	"repro/internal/experiments"
	"repro/internal/layout"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pnscan:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pnscan", flag.ContinueOnError)
	baseline := fs.Bool("baseline", false, "also run the traditional scanner")
	corpus := fs.Bool("corpus", false, "analyse the embedded listing corpus (E16)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON diagnostics")
	modelName := fs.String("model", "i386", "data model: ilp32, i386, or lp64")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var model layout.Model
	switch *modelName {
	case "ilp32":
		model = layout.ILP32
	case "i386":
		model = layout.ILP32i386
	case "lp64":
		model = layout.LP64
	default:
		return fmt.Errorf("unknown model %q", *modelName)
	}

	if *corpus {
		e, err := experiments.ByID("E16")
		if err != nil {
			return err
		}
		t, err := e.Run(experiments.Instrument{})
		if err != nil {
			return err
		}
		fmt.Fprint(out, t.String())
		return nil
	}

	if fs.NArg() == 0 {
		return fmt.Errorf("no input files (or use -corpus)")
	}
	exitDiags := 0
	var jsonFindings []jsonFinding
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		r, err := analyzer.Analyze(string(src), analyzer.Options{Model: model})
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, d := range r.Diags {
			if *jsonOut {
				jsonFindings = append(jsonFindings, jsonFinding{
					File: path, Line: d.Pos.Line, Col: d.Pos.Col,
					Code: d.Code, Severity: d.Sev.String(),
					Message: d.Msg, Suggestion: d.Suggestion,
				})
			} else {
				fmt.Fprintf(out, "%s:%s\n", path, d)
				if d.Suggestion != "" {
					fmt.Fprintf(out, "    fix: %s\n", d.Suggestion)
				}
			}
			exitDiags++
		}
		if *baseline {
			for _, f := range r.Baseline() {
				if *jsonOut {
					jsonFindings = append(jsonFindings, jsonFinding{
						File: path, Line: f.Pos.Line, Col: f.Pos.Col,
						Code: "BASELINE", Severity: "warning",
						Message: "risky call to " + f.Func + ": " + f.Msg,
					})
				} else {
					fmt.Fprintf(out, "%s:%s [baseline]\n", path, f)
				}
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if jsonFindings == nil {
			jsonFindings = []jsonFinding{}
		}
		return enc.Encode(jsonFindings)
	}
	if exitDiags > 0 {
		fmt.Fprintf(out, "%d finding(s)\n", exitDiags)
	} else {
		fmt.Fprintln(out, "no placement-new findings")
	}
	return nil
}

// jsonFinding is the machine-readable diagnostic shape emitted by -json.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Code       string `json:"code"`
	Severity   string `json:"severity"`
	Message    string `json:"message"`
	Suggestion string `json:"suggestion,omitempty"`
}
