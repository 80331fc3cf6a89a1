package attack

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/defense"
	"repro/internal/layout"
)

// matrixGolden pins every cell's full outcome; regenerate it with
// go test ./internal/attack -run TestMatrixOutcomeGolden -update
var matrixGolden = filepath.Join("testdata", "matrix_outcomes.golden")

// matrixModels are the data models every scenario × defense cell runs
// in, in the order the serving benchmark sweeps them.
var matrixModels = []layout.Model{layout.ILP32, layout.ILP32i386, layout.LP64}

// renderOutcomeLine renders one cell as a single tab-separated line:
// scenario, defense, model, status, metrics sorted by key, and the
// details quoted so that a multi-line note cannot split the cell.
func renderOutcomeLine(sb *strings.Builder, model string, o *Outcome) {
	fmt.Fprintf(sb, "%s\t%s\t%s\t%s\t", o.Scenario, o.Defense, model, o.Status())
	keys := make([]string, 0, len(o.Metrics))
	for k := range o.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(sb, "%s=%g", k, o.Metrics[k])
	}
	fmt.Fprintf(sb, "\t%q\n", o.Details)
}

// TestMatrixOutcomeGolden runs the whole scenario × defense × model
// matrix and compares every outcome — status, metrics and details —
// byte for byte against the pinned rendering. Interpreter changes that
// should be invisible to the simulated program (a faster access path, a
// loop replaced by its closed form) must leave this file untouched; the
// compiled-tier oracles cannot catch such drift, because they compare
// against the interpreter of the same build.
func TestMatrixOutcomeGolden(t *testing.T) {
	var sb strings.Builder
	for _, s := range Catalog() {
		for _, d := range defense.Catalog() {
			for _, m := range matrixModels {
				cfg := d
				cfg.Model = m
				o, err := s.Run(cfg)
				if err != nil {
					t.Fatalf("%s under %s/%s: %v", s.ID, d.Name, m.Name, err)
				}
				renderOutcomeLine(&sb, m.Name, o)
			}
		}
	}
	got := sb.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(matrixGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(matrixGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("matrix renders %d lines, golden has %d", len(gotLines), len(wantLines))
	}
	const maxReported = 5
	reported := 0
	for i := 0; i < len(gotLines) && i < len(wantLines) && reported < maxReported; i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("cell %d drifted:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			reported++
		}
	}
}
