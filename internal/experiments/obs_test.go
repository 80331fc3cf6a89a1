package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/defense"
	"repro/internal/obs"
)

// artifacts are the deterministic renderings of one instrumented run.
type artifacts struct {
	trace, ndjson, heatJSON []byte
	metrics, heat           string
}

// renderAll runs e instrumented and renders every deterministic
// artifact the obs layer exports.
func renderAll(t *testing.T, e Experiment) artifacts {
	t.Helper()
	col := obs.NewCollector()
	if _, err := RunInstrumented(e, Instrument{Collector: col}); err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	var a artifacts
	var err error
	if a.trace, err = obs.ChromeTrace(col.Tracer); err != nil {
		t.Fatal(err)
	}
	if a.ndjson, err = obs.NDJSON(col.Tracer, col.Metrics); err != nil {
		t.Fatal(err)
	}
	if a.heatJSON, err = obs.HeatmapJSON(col.Heat); err != nil {
		t.Fatal(err)
	}
	a.metrics, a.heat = col.Metrics.Exposition(), col.Heat.Render()
	return a
}

// requireEqual reports each artifact of got that differs from want.
func requireEqual(t *testing.T, id string, got, want artifacts) {
	t.Helper()
	if !bytes.Equal(got.trace, want.trace) {
		t.Errorf("%s: trace JSON differs", id)
	}
	if !bytes.Equal(got.ndjson, want.ndjson) {
		t.Errorf("%s: NDJSON differs", id)
	}
	if !bytes.Equal(got.heatJSON, want.heatJSON) {
		t.Errorf("%s: heatmap JSON differs", id)
	}
	if got.metrics != want.metrics {
		t.Errorf("%s: metrics exposition differs", id)
	}
	if got.heat != want.heat {
		t.Errorf("%s: heatmap render differs", id)
	}
}

// TestInstrumentedRunDeterministic is the obs counterpart of
// TestChaosCampaignDeterministic: two instrumented runs of the same
// experiment render byte-identical artifacts.
func TestInstrumentedRunDeterministic(t *testing.T) {
	e, err := ByID("E8")
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, e.ID, renderAll(t, e), renderAll(t, e))
}

// TestInstrumentedExperimentsInParallel runs every experiment
// instrumented and concurrently, each under its own collector, and
// holds each run's artifacts byte-identical to a serial instrumented
// run of the same experiment. Under -race it is the gate that
// instrumentation reaches a run only through its Instrument argument.
func TestInstrumentedExperimentsInParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue is slow in -short mode")
	}
	serial := map[string]artifacts{}
	for _, e := range All() {
		serial[e.ID] = renderAll(t, e)
	}
	t.Run("parallel", func(t *testing.T) {
		for _, e := range All() {
			t.Run(e.ID, func(t *testing.T) {
				t.Parallel()
				requireEqual(t, e.ID, renderAll(t, e), serial[e.ID])
			})
		}
	})
}

func TestInstrumentedRunObservesScenarios(t *testing.T) {
	e, err := ByID("E8")
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	table, err := RunInstrumented(e, Instrument{Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || table.NumRows() == 0 {
		t.Fatal("experiment table missing")
	}
	// The experiment root span exists and scenario spans nest under it.
	spans := col.Tracer.Spans()
	if len(spans) == 0 || spans[0].Name != "E8" || spans[0].Category != obs.CatExperiment {
		t.Fatalf("root span = %+v", spans)
	}
	var scenarios int
	for _, s := range spans[1:] {
		if s.Category == obs.CatScenario {
			scenarios++
			if s.Parent != spans[0].ID {
				t.Errorf("scenario %q parented to %d, want root %d", s.Name, s.Parent, spans[0].ID)
			}
		}
	}
	if scenarios == 0 {
		t.Error("no scenario spans recorded")
	}
	// The vptr-clobber run writes through the bss segment and its
	// globals land in the heatmap as annotated regions.
	if col.Metrics.Value(obs.MetricWrites, obs.L("segment", "bss")) == 0 {
		t.Error("no bss writes observed")
	}
	heat := col.Heat.Render()
	if !strings.Contains(heat, "__vptr") {
		t.Errorf("heatmap lacks vptr annotation:\n%s", heat)
	}
}

func TestScenarioSpanNoCollector(t *testing.T) {
	// Without a collector, run opens no span and the scenario still runs.
	if _, err := run(Instrument{}, "bss-overflow", defense.None); err != nil {
		t.Fatal(err)
	}
}
