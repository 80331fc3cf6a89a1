package obs

import (
	"strings"
	"testing"
)

func TestCounterAndLabels(t *testing.T) {
	r := NewRegistry()
	r.Inc(MetricWrites, L("segment", "stack"))
	r.Inc(MetricWrites, L("segment", "stack"))
	r.Inc(MetricWrites, L("segment", "bss"))
	r.Add(MetricWriteBytes, 16, L("segment", "stack"))
	if got := r.Value(MetricWrites, L("segment", "stack")); got != 2 {
		t.Errorf("stack writes = %g, want 2", got)
	}
	if got := r.Value(MetricWrites, L("segment", "bss")); got != 1 {
		t.Errorf("bss writes = %g, want 1", got)
	}
	if got := r.Value(MetricWrites, L("segment", "heap")); got != 0 {
		t.Errorf("absent series = %g, want 0", got)
	}
	// Negative deltas are ignored: counters are monotone.
	r.Add(MetricWriteBytes, -5, L("segment", "stack"))
	if got := r.Value(MetricWriteBytes, L("segment", "stack")); got != 16 {
		t.Errorf("after negative Add: %g, want 16", got)
	}
}

func TestLabelOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	r.Inc("m", L("a", "1"), L("b", "2"))
	r.Inc("m", L("b", "2"), L("a", "1"))
	if got := r.Value("m", L("b", "2"), L("a", "1")); got != 2 {
		t.Errorf("label order split the series: %g, want 2", got)
	}

	a, b, c := L("a", "1"), L("b", "2"), L("c", "3")
	orders := [][]Label{{a, b, c}, {a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a}}
	for _, ls := range orders {
		r.Inc("three", ls...)
	}
	for _, ls := range orders {
		if got := r.Value("three", ls...); got != 6 {
			t.Errorf("Value%v = %g, want 6", ls, got)
		}
	}
	if exp, want := r.Exposition(), "three{a=\"1\",b=\"2\",c=\"3\"} 6\n"; !strings.Contains(exp, want) ||
		strings.Count(exp, "three{") != 1 {
		t.Errorf("six orders of one label set did not render as one series %q:\n%s", want, exp)
	}
}

// TestRegistryUpdatesDoNotAllocate: updating a series that already
// exists allocates nothing, whatever order its labels come in, so the
// serving path's per-request counters and histograms cost no garbage.
func TestRegistryUpdatesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	r.Describe("h", "latency", TypeHistogram, 1, 5, 25)
	a, b, c := L("a", "x"), L("b", "y"), L("c", "z")
	for _, ls := range [][]Label{nil, {a}, {a, b}, {b, a}, {a, b, c}, {c, a, b}, {b, c, a}} {
		ops := []struct {
			name string
			f    func()
		}{
			{"Inc", func() { r.Inc("c", ls...) }},
			{"Add", func() { r.Add("c", 2, ls...) }},
			{"Set", func() { r.Set("g", 3, ls...) }},
			{"Observe", func() { r.Observe("h", 4, ls...) }},
		}
		for _, op := range ops {
			op.f() // the first update creates the series
			if allocs := testing.AllocsPerRun(100, op.f); allocs != 0 {
				t.Errorf("%s%v: %v allocations per update, want 0", op.name, ls, allocs)
			}
		}
	}
	// The call sites' variadic labels stay on their stacks too.
	if allocs := testing.AllocsPerRun(100, func() { r.Inc("c", L("b", "y"), L("a", "x")) }); allocs != 0 {
		t.Errorf("Inc with literal labels: %v allocations per update, want 0", allocs)
	}
}

// TestDescribeKeepsExistingBuckets: describing a histogram that already
// has series only sets its help. Re-bucketing it left the series with
// the old number of bucket counters, and the next Observe past them
// indexed out of range.
func TestDescribeKeepsExistingBuckets(t *testing.T) {
	r := NewRegistry()
	r.Observe("h", 3000)
	r.Describe("h", "late help", TypeHistogram, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000)
	r.Observe("h", 3000)
	exp := r.Exposition()
	want := []string{"# HELP h late help", `h_bucket{le="4096"} 2`, `h_bucket{le="+Inf"} 2`, "h_count 2"}
	for _, w := range want {
		if !strings.Contains(exp, w) {
			t.Errorf("exposition missing %q:\n%s", w, exp)
		}
	}
	if strings.Contains(exp, `le="5000"`) {
		t.Errorf("an existing histogram took the described buckets:\n%s", exp)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	r.Describe("pn_depth", "current depth", TypeGauge)
	r.Set("pn_depth", 3)
	r.Set("pn_depth", 1)
	if got := r.Value("pn_depth"); got != 1 {
		t.Errorf("gauge = %g, want 1 (last set wins)", got)
	}
	if !strings.Contains(r.Exposition(), "# TYPE pn_depth gauge") {
		t.Error("gauge TYPE line missing")
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	r.Describe("h", "sizes", TypeHistogram, 1, 4, 16)
	for _, v := range []float64{1, 2, 4, 8, 100} {
		r.Observe("h", v)
	}
	exp := r.Exposition()
	want := []string{
		"# HELP h sizes",
		"# TYPE h histogram",
		`h_bucket{le="1"} 1`,
		`h_bucket{le="4"} 3`,  // cumulative: 1 + (2,4)
		`h_bucket{le="16"} 4`, // + 8
		`h_bucket{le="+Inf"} 5`,
		"h_sum 115",
		"h_count 5",
	}
	for _, w := range want {
		if !strings.Contains(exp, w) {
			t.Errorf("exposition missing %q:\n%s", w, exp)
		}
	}
	if got := r.Value("h"); got != 5 {
		t.Errorf("histogram Value = %g, want count 5", got)
	}
}

func TestExpositionDeterministic(t *testing.T) {
	build := func(order []string) string {
		r := NewRegistry()
		r.Describe(MetricWrites, "w", TypeCounter)
		for _, seg := range order {
			r.Inc(MetricWrites, L("segment", seg))
		}
		r.Inc(MetricReads, L("segment", "stack"))
		return r.Exposition()
	}
	a := build([]string{"stack", "bss", "heap"})
	b := build([]string{"heap", "stack", "bss"})
	if a != b {
		t.Errorf("exposition depends on insertion order:\n%s\n--- vs ---\n%s", a, b)
	}
	if !strings.HasPrefix(a, "# HELP") && !strings.HasPrefix(a, "# TYPE") {
		t.Errorf("unexpected prefix: %q", a[:20])
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Inc("m", L("k", "a\"b\\c\nd"))
	exp := r.Exposition()
	if !strings.Contains(exp, `m{k="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", exp)
	}
}

func TestSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Describe("h", "sizes", TypeHistogram, 2, 8)
	r.Observe("h", 1)
	r.Observe("h", 4)
	r.Inc("c", L("x", "1"))
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d points, want 2", len(snap))
	}
	// Sorted by family name: c before h.
	if snap[0].Name != "c" || snap[1].Name != "h" {
		t.Fatalf("order = %s, %s", snap[0].Name, snap[1].Name)
	}
	h := snap[1]
	if h.Count != 2 || h.Sum != 5 || len(h.Buckets) != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("histogram point = %+v", h)
	}
}

func TestRegistryTable(t *testing.T) {
	r := NewRegistry()
	r.Inc(MetricProcesses)
	r.Observe(MetricAccessSize, 8, L("op", "write"))
	tb := r.Table("Metrics")
	s := tb.String()
	for _, w := range []string{"pn_processes_total", "pn_mem_access_size_bytes", "count=1 sum=8"} {
		if !strings.Contains(s, w) {
			t.Errorf("table missing %q:\n%s", w, s)
		}
	}
}
