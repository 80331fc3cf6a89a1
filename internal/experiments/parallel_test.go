package experiments

import (
	"testing"
)

// TestAllExperimentsInParallel runs every experiment in the catalogue
// concurrently. Experiments are supposed to be pure functions of their
// inputs — each builds its own simulated process — so nothing here may
// share mutable state. Run under -race this test is the regression gate
// for that property: any hidden global (package-level RNG, shared table,
// cached process) shows up as a data race or a flaky table.
func TestAllExperimentsInParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue is slow in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tb, err := e.Run(Instrument{})
			if err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Title, err)
			}
			if tb == nil || len(tb.String()) == 0 {
				t.Fatalf("%s produced an empty table", e.ID)
			}
		})
	}
}

// TestExperimentRerunStable runs a fast subset twice back to back and
// demands identical tables — the concurrency-safety claim above is only
// meaningful if each experiment is also deterministic in isolation.
func TestExperimentRerunStable(t *testing.T) {
	stable := map[string]bool{"E1": true, "E5": true, "E9": true, "E14": true}
	for _, e := range All() {
		if !stable[e.ID] {
			continue
		}
		a, err := e.Run(Instrument{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Run(Instrument{})
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s is not deterministic across reruns", e.ID)
		}
	}
}
