package obs

import (
	"sync"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	outer := tr.Start(CatExperiment, "E1")
	inner := tr.Start(CatScenario, "stack-ret")
	if inner.Parent != outer.ID {
		t.Errorf("inner.Parent = %d, want %d", inner.Parent, outer.ID)
	}
	tr.Event(CatMachine, "hijack")
	inner.Close()
	sibling := tr.Start(CatScenario, "heap-vptr")
	if sibling.Parent != outer.ID {
		t.Errorf("sibling.Parent = %d, want %d (inner closed)", sibling.Parent, outer.ID)
	}
	sibling.Close()
	outer.Close()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.End == 0 || s.End <= s.Start {
			t.Errorf("span %q has times [%d,%d]", s.Name, s.Start, s.End)
		}
	}
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Span != inner.ID {
		t.Errorf("event attribution = %+v, want span %d", evs, inner.ID)
	}
}

func TestClockMonotonic(t *testing.T) {
	tr := NewTracer()
	var last Tick
	step := func(v Tick, what string) {
		if v <= last {
			t.Errorf("%s: clock went %d -> %d", what, last, v)
		}
		last = v
	}
	s := tr.Start(CatExperiment, "x")
	step(tr.Now(), "start")
	step(tr.Tick(), "tick")
	tr.Event(CatMachine, "e")
	step(tr.Now(), "event")
	s.Close()
	step(tr.Now(), "close")
}

func TestCloseIdempotentAndCascading(t *testing.T) {
	tr := NewTracer()
	outer := tr.Start(CatExperiment, "outer")
	inner := tr.Start(CatScenario, "inner")
	outer.Close() // ends inner too
	if inner.End == 0 {
		t.Error("closing outer did not end nested inner span")
	}
	end := outer.End
	outer.Close() // no-op
	inner.Close() // no-op
	if outer.End != end {
		t.Errorf("second Close moved End %d -> %d", end, outer.End)
	}
	// The stack is empty again: a new span is a root.
	if s := tr.Start(CatExperiment, "next"); s.Parent != 0 {
		t.Errorf("post-close span has parent %d, want root", s.Parent)
	}
}

func TestFinishClosesOpenSpans(t *testing.T) {
	tr := NewTracer()
	a := tr.Start(CatExperiment, "a")
	b := tr.Start(CatScenario, "b")
	end := tr.Finish()
	if a.End == 0 || b.End == 0 {
		t.Error("Finish left spans open")
	}
	if got := tr.Finish(); got != end {
		t.Errorf("second Finish moved the clock %d -> %d", end, got)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Tick()
	tr.Now()
	tr.Event(CatMachine, "e")
	s := tr.Start(CatExperiment, "x")
	if s != nil {
		t.Fatalf("nil tracer returned span %+v", s)
	}
	s.Close()
	s.SetAttr("k", "v")
	tr.Finish()
	if tr.Spans() != nil || tr.Events() != nil {
		t.Error("nil tracer returned non-nil slices")
	}

	var r *Registry
	r.Inc(MetricWrites)
	r.Add(MetricWriteBytes, 4)
	r.Set("g", 1)
	r.Observe(MetricAccessSize, 8)
	if r.Value(MetricWrites) != 0 || r.Exposition() != "" || r.Snapshot() != nil {
		t.Error("nil registry leaked state")
	}

	var h *Heatmap
	h.RecordWrite(0x1000, 4)
	h.SetSegments(nil)
	h.AddRegion("x", 0x1000, 4)
	if h.WrittenBytes() != 0 {
		t.Error("nil heatmap counted bytes")
	}
	h.Render()

	var c *Collector
	c.ObserveProcess(nil)
	c.AttemptStarted("job", 1)
	c.JobFinished(nil)
	c.Finalize()
	if c.ChaosHook() != nil {
		t.Error("nil collector returned a chaos hook")
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := NewTracer()
	root := tr.Start(CatExperiment, "root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Tick()
				tr.Event(CatMachine, "e")
			}
		}()
	}
	wg.Wait()
	root.Close()
	if got := len(tr.Events()); got != 800 {
		t.Errorf("recorded %d events, want 800", got)
	}
}
