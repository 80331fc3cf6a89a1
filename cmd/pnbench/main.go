// Command pnbench regenerates the experiment tables indexed in
// EXPERIMENTS.md.
//
// Usage:
//
//	pnbench [-exp E1|E2|...|all] [-markdown]
//	pnbench -exp E8 -json out/        # also write out/BENCH_E8.json
//	pnbench -mem out/ -min-cow-speedup 1.0   # checkpoint micro-bench -> out/BENCH_MEM.json
//	pnbench -shadow out/ -max-disabled-overhead 1.5   # sanitizer micro-bench -> out/BENCH_SHADOW.json
//	pnbench -foundry out/ -foundry-seed 42 -foundry-count 200   # triage bench -> out/BENCH_FOUNDRY.json
//	pnbench -compile out/ -min-speedup 5.0   # compiled-vs-interpreted bench -> out/BENCH_COMPILE.json + PROGRAMS.txt
//	pnbench -list
//
// With -json DIR each selected experiment additionally runs under full
// observability instrumentation (see internal/obs) and writes a
// machine-readable BENCH_<ID>.json into DIR: wall-clock run latency,
// the result table as plain data, and the complete metrics snapshot
// (per-segment access volume, defense verdicts, machine events, …).
// Those files track the perf and behaviour trajectory across PRs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pnbench:", err)
		os.Exit(1)
	}
}

// benchReport is the schema of one BENCH_<ID>.json artifact.
type benchReport struct {
	Schema  string            `json:"schema"` // "pnbench/v1"
	ID      string            `json:"id"`
	Ref     string            `json:"ref"`
	Title   string            `json:"title"`
	RunNS   int64             `json:"run_ns"` // instrumented wall-clock latency
	Ticks   uint64            `json:"ticks"`  // logical clock at finalize (deterministic)
	Table   report.TableData  `json:"table"`
	Metrics []obs.MetricPoint `json:"metrics"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pnbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (E1..E17) or all")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavoured Markdown tables")
	csv := fs.Bool("csv", false, "emit CSV (one table per experiment, title omitted)")
	jsonDir := fs.String("json", "", "directory to write BENCH_<ID>.json artifacts into (created if missing)")
	memDir := fs.String("mem", "", "run the checkpoint/restore micro-benchmark and write BENCH_MEM.json into this directory")
	minCowSpeedup := fs.Float64("min-cow-speedup", 0,
		"with -mem: fail unless the COW path beats the deep copy by at least this factor on the sparse workload")
	shadowDir := fs.String("shadow", "", "run the shadow-memory sanitizer micro-benchmark and write BENCH_SHADOW.json into this directory")
	foundryDir := fs.String("foundry", "", "run the foundry triage benchmark and write BENCH_FOUNDRY.json into this directory")
	compileDir := fs.String("compile", "", "run the compiled-vs-interpreted scenario benchmark and write BENCH_COMPILE.json and PROGRAMS.txt into this directory")
	minSpeedup := fs.Float64("min-speedup", 0,
		"with -compile: fail unless the compiled path beats the interpreted path by at least this aggregate factor")
	foundrySeed := fs.Int64("foundry-seed", 42, "with -foundry: corpus seed")
	foundryCount := fs.Int("foundry-count", 200, "with -foundry: corpus size")
	maxDisabledOverhead := fs.Float64("max-disabled-overhead", 0,
		"with -shadow: fail if the disabled (nil-checker) write path exceeds this multiple of the no-seam baseline")
	maxArmedOverhead := fs.Float64("max-armed-overhead", 0,
		"with -shadow: fail if the armed clean write path exceeds this multiple of the no-seam baseline")
	list := fs.Bool("list", false, "list experiments")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprint(out, experiments.ListTable().String())
		return nil
	}
	if *memDir != "" {
		return runMemBench(*memDir, *minCowSpeedup, out)
	}
	if *shadowDir != "" {
		return runShadowBench(*shadowDir, *maxDisabledOverhead, *maxArmedOverhead, out)
	}
	if *foundryDir != "" {
		return runFoundryBench(*foundryDir, *foundrySeed, *foundryCount, out)
	}
	if *compileDir != "" {
		return runCompileBench(*compileDir, *minSpeedup, out)
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
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			return err
		}
	}
	for i, e := range selected {
		var (
			t   *report.Table
			err error
		)
		if *jsonDir == "" {
			t, err = e.Run(experiments.Instrument{})
		} else {
			t, err = runAndDump(e, *jsonDir)
		}
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

// runAndDump runs e instrumented, writes dir/BENCH_<ID>.json, and
// returns the experiment's table for the usual rendering.
func runAndDump(e experiments.Experiment, dir string) (*report.Table, error) {
	col := obs.NewCollector()
	start := time.Now()
	t, err := experiments.RunInstrumented(e, experiments.Instrument{Collector: col})
	elapsed := time.Since(start)
	if err != nil {
		return t, err
	}
	rep := benchReport{
		Schema:  "pnbench/v1",
		ID:      e.ID,
		Ref:     e.Ref,
		Title:   e.Title,
		RunNS:   elapsed.Nanoseconds(),
		Ticks:   uint64(col.Tracer.Now()),
		Metrics: col.Metrics.Snapshot(),
	}
	if t != nil {
		rep.Table = t.Data()
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return t, err
	}
	data = append(data, '\n')
	name := filepath.Join(dir, "BENCH_"+e.ID+".json")
	if err := os.WriteFile(name, data, 0o644); err != nil {
		return t, err
	}
	return t, nil
}
