// Command pntrace runs one experiment from the catalogue under full
// observability instrumentation — span tracing on a deterministic
// logical clock, a metrics registry, and address-space write-density
// heatmaps — and emits the artifacts:
//
//	trace.json     Chrome trace_event JSON (chrome://tracing, Perfetto)
//	metrics.prom   Prometheus text exposition
//	heatmap.txt    ASCII write-density heatmap with object annotations
//	heatmap.json   the same heatmap as plain data
//	events.ndjson  newline-delimited structured span/event/metric stream
//	table.txt      the experiment's own report table
//
// Usage:
//
//	pntrace -experiment E8 [-seed N] [-dir out/]
//	pntrace -experiment E1 -chaos-prob 0.01 -seed 7   # trace under fault injection
//	pntrace -follow http://127.0.0.1:8080/watch -count 3 -dir out/
//	pntrace -list
//
// -follow attaches to a running pnserve's /watch stream (NDJSON) and
// reconstructs the same artifact set from the live events: span
// start/end pairs become trace spans, heat-tile deltas rebuild the
// write-density heatmap, metric deltas rebuild counters. Stream
// filters pass through in the URL (?trace=, ?tenant=, ?kind=).
//
// Without -dir the artifacts print to stdout in delimited sections.
// Output is deterministic: two invocations with the same flags (same
// experiment, seed, chaos parameters) produce byte-identical artifacts
// — the same contract pnchaos makes, and CI gates it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pntrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pntrace", flag.ContinueOnError)
	expID := fs.String("experiment", "", "experiment id (E1..E19; see -list)")
	seed := fs.Int64("seed", 42, "seed for the optional chaos overlay; recorded in the trace")
	chaosProb := fs.Float64("chaos-prob", 0, "per-access fault probability for the chaos overlay (0 = no injection)")
	faults := fs.String("faults", "all", "fault kinds for the chaos overlay (comma list or all)")
	dir := fs.String("dir", "", "directory to write artifacts into (created if missing); default prints to stdout")
	list := fs.Bool("list", false, "list experiments")
	follow := fs.String("follow", "", "URL of a pnserve /watch endpoint: replay the live stream into artifacts instead of running locally")
	followCount := fs.Int("count", 1, "with -follow, number of finished traces to capture before rendering")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprint(out, experiments.ListTable().String())
		return nil
	}
	if *follow != "" {
		return followStream(out, *follow, *dir, *followCount)
	}
	if *expID == "" {
		return fmt.Errorf("missing -experiment (try -list)")
	}
	e, err := experiments.ByID(*expID)
	if err != nil {
		return err
	}
	kinds, err := chaos.ParseKinds(*faults)
	if err != nil {
		return err
	}

	// Build the collector and, when requested, a chaos overlay whose
	// schedule continues across every process the experiment builds.
	col := obs.NewCollector()
	in := experiments.Instrument{Collector: col}
	if *chaosProb > 0 {
		inj := chaos.New(chaos.Config{
			Seed:     *seed,
			Prob:     *chaosProb,
			Kinds:    kinds,
			OnInject: col.ChaosHook(),
		})
		in.OnProcess = func(p *machine.Process) { inj.Arm(p.Mem) }
	}
	table, runErr := experiments.RunInstrumented(e, in,
		obs.AInt("seed", *seed),
		obs.A("chaos", fmt.Sprintf("prob=%g kinds=%s", *chaosProb, chaos.KindNames(kinds))))

	if err := emit(out, *dir, col, table); err != nil {
		return err
	}
	if runErr != nil {
		return fmt.Errorf("%s: %w", e.ID, runErr)
	}
	return nil
}

// emit writes the five artifacts either into dir or to out as sections.
func emit(out io.Writer, dir string, col *obs.Collector, table *report.Table) error {
	traceJSON, err := obs.ChromeTrace(col.Tracer)
	if err != nil {
		return err
	}
	ndjson, err := obs.NDJSON(col.Tracer, col.Metrics)
	if err != nil {
		return err
	}
	heatJSON, err := obs.HeatmapJSON(col.Heat)
	if err != nil {
		return err
	}
	metrics := []byte(col.Metrics.Exposition())
	heatTxt := []byte(col.Heat.Render())
	var tableTxt []byte
	if table != nil {
		tableTxt = []byte(table.String())
	}

	artifacts := []struct {
		name string
		data []byte
	}{
		{"trace.json", traceJSON},
		{"metrics.prom", metrics},
		{"heatmap.txt", heatTxt},
		{"heatmap.json", heatJSON},
		{"events.ndjson", ndjson},
		{"table.txt", tableTxt},
	}

	if dir == "" {
		for _, a := range artifacts {
			fmt.Fprintf(out, "== %s ==\n", a.name)
			out.Write(a.data)
			if len(a.data) > 0 && a.data[len(a.data)-1] != '\n' {
				fmt.Fprintln(out)
			}
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range artifacts {
		if err := os.WriteFile(filepath.Join(dir, a.name), a.data, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "wrote %d artifacts to %s\n", len(artifacts), dir)
	return nil
}
