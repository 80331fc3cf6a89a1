package obs

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/machine"
	"repro/internal/resilience"
)

func TestCollectorObservesProcessAccesses(t *testing.T) {
	col := NewCollector()
	p, err := machine.New(machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	col.ObserveProcess(p)
	if got := col.Metrics.Value(MetricProcesses); got != 1 {
		t.Errorf("processes = %g, want 1", got)
	}

	base := p.Img.BSS.Base
	if err := p.Mem.WriteU32(base, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Mem.ReadU32(base); err != nil {
		t.Fatal(err)
	}

	if got := col.Metrics.Value(MetricWrites, L("segment", "bss")); got != 1 {
		t.Errorf("bss writes = %g, want 1", got)
	}
	if got := col.Metrics.Value(MetricWriteBytes, L("segment", "bss")); got != 4 {
		t.Errorf("bss write bytes = %g, want 4", got)
	}
	if got := col.Metrics.Value(MetricReads, L("segment", "bss")); got != 1 {
		t.Errorf("bss reads = %g, want 1", got)
	}
	if got := col.Heat.WrittenBytes(); got != 4 {
		t.Errorf("heat bytes = %g, want 4", float64(got))
	}
	if col.Tracer.Now() == 0 {
		t.Error("logical clock did not advance on accesses")
	}
}

// TestCollectorObservesOnlyGivenProcesses: a collector sees exactly the
// processes handed to ObserveProcess; a process built beside them is
// invisible to it, so concurrent runs can each carry their own.
func TestCollectorObservesOnlyGivenProcesses(t *testing.T) {
	col := NewCollector()
	other, err := machine.New(machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Mem.WriteU32(other.Img.BSS.Base, 1); err != nil {
		t.Fatal(err)
	}
	if got := col.Metrics.Value(MetricProcesses); got != 0 {
		t.Errorf("processes = %g, want 0", got)
	}
	if got := col.Tracer.Now(); got != 0 {
		t.Errorf("logical clock = %d after an unobserved write, want 0", got)
	}
}

func TestChaosHookCounts(t *testing.T) {
	col := NewCollector()
	hook := col.ChaosHook()
	hook(chaos.Injection{Kind: "bitflip", Op: "write", Addr: 0x1000, Access: 1})
	hook(chaos.Injection{Kind: "bitflip", Op: "write", Addr: 0x1004, Access: 2})
	hook(chaos.Injection{Kind: "drop", Op: "write", Addr: 0x2000, Access: 3})
	if got := col.Metrics.Value(MetricChaosFaults, L("kind", "bitflip")); got != 2 {
		t.Errorf("bitflip faults = %g, want 2", got)
	}
	evs := col.Tracer.Events()
	if len(evs) != 3 || evs[0].Category != CatChaos {
		t.Errorf("chaos events = %+v", evs)
	}
}

func TestCollectorResilienceObserver(t *testing.T) {
	col := NewCollector()
	var obsIface resilience.Observer = col // compile-time + runtime check
	obsIface.AttemptStarted("job", 1)
	obsIface.AttemptCrashed("job", resilience.CrashRecord{Kind: "fault", FaultKind: "bitflip", Restored: true, RestoreClean: true})
	obsIface.AttemptStarted("job", 2)
	obsIface.JobFinished(&resilience.Result{Job: "job", Status: resilience.StatusOK})

	m := col.Metrics
	if m.Value(MetricAttempts) != 2 || m.Value(MetricRetries) != 1 {
		t.Errorf("attempts=%g retries=%g, want 2/1", m.Value(MetricAttempts), m.Value(MetricRetries))
	}
	if m.Value(MetricCrashes, L("kind", "fault")) != 1 {
		t.Errorf("crashes = %g, want 1", m.Value(MetricCrashes, L("kind", "fault")))
	}
	if m.Value(MetricJobs, L("status", string(resilience.StatusOK))) != 1 {
		t.Error("job status counter missing")
	}

	col.Finalize()
	spans := col.Tracer.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d retry spans, want 2", len(spans))
	}
	var crashAttr, faultAttr bool
	for _, a := range spans[0].Attrs {
		if a.Key == "crash" && a.Value == "fault" {
			crashAttr = true
		}
		if a.Key == "fault" && a.Value == "bitflip" {
			faultAttr = true
		}
	}
	if !crashAttr || !faultAttr {
		t.Errorf("first attempt span attrs = %+v", spans[0].Attrs)
	}
	if !strings.HasPrefix(spans[0].Name, "job#1") || !strings.HasPrefix(spans[1].Name, "job#2") {
		t.Errorf("span names = %q, %q", spans[0].Name, spans[1].Name)
	}
}
