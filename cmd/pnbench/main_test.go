package main

import (
	"strings"
	"testing"
)

func runCapture(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestListExperiments(t *testing.T) {
	out := runCapture(t, "-list")
	for _, id := range []string{"E1", "E15", "E17"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s:\n%s", id, out)
		}
	}
}

func TestSingleExperiment(t *testing.T) {
	out := runCapture(t, "-exp", "E3")
	for _, want := range []string{"ssn[0]", "ssn[1]", "ssn[2]", "canary skip"} {
		if !strings.Contains(out, want) {
			t.Errorf("E3 output missing %q:\n%s", want, out)
		}
	}
}

func TestMarkdownMode(t *testing.T) {
	out := runCapture(t, "-exp", "E1", "-markdown")
	if !strings.Contains(out, "| quantity | paper | measured |") {
		t.Errorf("markdown table missing:\n%s", out)
	}
}

func TestCSVMode(t *testing.T) {
	out := runCapture(t, "-exp", "E1", "-csv")
	if !strings.Contains(out, "quantity,paper,measured") {
		t.Errorf("csv header missing:\n%s", out)
	}
	if !strings.Contains(out, "attack succeeds,yes,yes") {
		t.Errorf("csv row missing:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "E99"}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
}
