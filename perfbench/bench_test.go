package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// declared is BENCHMARK.json's metric list: name → unit.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestStreamIsSeeded(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) []byte {
			s, err := w.gen(seed, allCells())
			if err != nil {
				t.Fatal(err)
			}
			return s.bytes()
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
	}
}

// TestTinyRuns runs every workload briefly, untraced and traced, and
// checks that each declared metric is emitted with its unit, that no
// request failed (error_rate 0), and that no span of the traced run
// has a negative self time.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.name, seed: 3, seconds: 0.5, trace: traced, traceDir: t.TempDir(), setups: 1}
			res, err := execute(o, newHeader(o))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed",
					w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
				if res.Metrics["other_us.n"].Value == 0 {
					t.Errorf("%s: no other residual recorded", w.name)
				}
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, name, got, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, traced, len(res.Metrics), len(want))
			}
		}
	}
}
