package experiments

import (
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/defense"
)

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			if e.ID == "E15" && testing.Short() {
				t.Skip("matrix is slow in -short mode")
			}
			tb, err := e.Run(Instrument{})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tb.NumRows() == 0 {
				t.Errorf("%s produced an empty table", e.ID)
			}
			if !strings.Contains(tb.Title, e.ID) {
				t.Errorf("%s table title %q lacks the experiment id", e.ID, tb.Title)
			}
		})
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E3")
	if err != nil || e.ID != "E3" {
		t.Fatalf("ByID(E3) = %+v, %v", e, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("unknown experiment resolved")
	}
}

func TestE3TableShape(t *testing.T) {
	tb, err := runE3(Instrument{})
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	// The paper's indexing claims must appear with matching measurements.
	for _, want := range []string{"ssn[0]", "ssn[1]", "ssn[2]", "canary skip"} {
		if !strings.Contains(s, want) {
			t.Errorf("E3 table missing %q:\n%s", want, s)
		}
	}
	// The measured indexes match the paper's: rows pair paper/measured.
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "no saved FP") && strings.Count(line, "ssn[0]") != 2 {
			t.Errorf("plain row should measure ssn[0]: %q", line)
		}
		if strings.HasPrefix(line, "saved FP") && !strings.Contains(line, "canary") && strings.Count(line, "ssn[1]") != 2 {
			t.Errorf("saved-FP row should measure ssn[1]: %q", line)
		}
	}
}

func TestE15MatrixAndSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is slow in -short mode")
	}
	tb, err := runE15(Instrument{})
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != len(attack.Catalog()) {
		t.Errorf("matrix rows = %d, want %d", tb.NumRows(), len(attack.Catalog()))
	}
	s := tb.String()
	if !strings.Contains(s, "hardened") || !strings.Contains(s, "none") {
		t.Errorf("matrix missing defense columns:\n%s", s)
	}

	configs := defense.Catalog()
	matrix, err := attack.RunMatrix(configs)
	if err != nil {
		t.Fatal(err)
	}
	sum := MatrixSummary(matrix, configs)
	if sum.NumRows() != len(configs) {
		t.Errorf("summary rows = %d", sum.NumRows())
	}
	ss := sum.String()
	// The undefended row shows a clean sweep; hardened shows zero.
	for _, line := range strings.Split(ss, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "none":
			if fields[1] != "29" {
				t.Errorf("undefended successes = %s, want 29: %q", fields[1], line)
			}
		case "hardened":
			if fields[1] != "0" {
				t.Errorf("hardened successes = %s, want 0: %q", fields[1], line)
			}
		}
	}
}

func TestE16Totals(t *testing.T) {
	tb, err := runE16(Instrument{})
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	if !strings.Contains(s, "TOTAL") {
		t.Fatalf("no totals row:\n%s", s)
	}
	// Baseline detects zero placement-new vulnerabilities.
	var totalLine string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "TOTAL") {
			totalLine = line
		}
	}
	fields := strings.Fields(totalLine)
	if len(fields) < 2 {
		t.Fatalf("totals line = %q", totalLine)
	}
	baseline := fields[len(fields)-1]
	if !strings.HasPrefix(baseline, "0/") {
		t.Errorf("baseline total = %s, want 0/N", baseline)
	}
	analyzerTotal := fields[len(fields)-2]
	if strings.HasPrefix(analyzerTotal, "0/") {
		t.Errorf("analyzer total = %s, want full detection", analyzerTotal)
	}
	if analyzerTotal != strings.Replace(analyzerTotal, "/", "/", 1) {
		t.Errorf("unexpected analyzer total %q", analyzerTotal)
	}
	parts := strings.Split(analyzerTotal, "/")
	if len(parts) == 2 && parts[0] != parts[1] {
		t.Errorf("analyzer detected %s of %s placement-new vulns", parts[0], parts[1])
	}
}

func TestE17ProducesPositiveTimings(t *testing.T) {
	tb, err := runE17(Instrument{})
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	for _, want := range []string{"unchecked", "checked", "StackGuard", "shadow stack", "sanitize"} {
		if !strings.Contains(s, want) {
			t.Errorf("E17 missing row %q:\n%s", want, s)
		}
	}
}
