package obs

import (
	"fmt"
	"sync"

	"repro/internal/chaos"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/resilience"
)

// Collector bundles a Tracer, a metrics Registry, and a Heatmap, and
// implements every observation seam the substrates expose:
//
//   - mem.AccessObserver: per-segment read/write counts and byte
//     volume, access-size histograms, write-density heat, one clock
//     tick per access.
//   - machine process construction (ObserveProcess, which a run's
//     defense.Config.OnProcess hook calls) and event recording
//     (SetEventObserver): process counts, machine-event and
//     defense-verdict counters, instant trace events for hijacks and
//     aborts.
//   - chaos.Config.OnInject: fault counters by kind plus chaos trace
//     events.
//   - resilience.Observer: retry spans per supervised attempt, job /
//     retry / crash counters.
//
// A Collector observes; it never alters the run. Methods are safe for
// concurrent use (supervised attempts run on their own goroutines) and
// nil-safe, so `var c *Collector; c.ObserveProcess(p)` is a no-op.
type Collector struct {
	Tracer  *Tracer
	Metrics *Registry
	Heat    *Heatmap

	mu       sync.Mutex
	procs    []*machine.Process
	attempts map[string]*Span // job id -> open retry span
}

// NewCollector builds a collector with all three sinks armed and the
// standard metric families described.
func NewCollector() *Collector {
	c := &Collector{Tracer: NewTracer(), Metrics: NewRegistry(), Heat: NewHeatmap()}
	m := c.Metrics
	m.Describe(MetricReads, "checked reads observed, by segment", TypeCounter)
	m.Describe(MetricWrites, "checked writes observed, by segment", TypeCounter)
	m.Describe(MetricReadBytes, "bytes read through checked accesses, by segment", TypeCounter)
	m.Describe(MetricWriteBytes, "bytes written through checked accesses, by segment", TypeCounter)
	m.Describe(MetricAccessSize, "checked access sizes in bytes, by op", TypeHistogram)
	m.Describe(MetricProcesses, "simulated processes constructed", TypeCounter)
	m.Describe(MetricMachineEvents, "machine events recorded, by kind", TypeCounter)
	m.Describe(MetricVerdicts, "defense verdicts observed, by verdict", TypeCounter)
	m.Describe(MetricChaosFaults, "chaos faults injected, by kind", TypeCounter)
	m.Describe(MetricJobs, "supervised jobs finished, by status", TypeCounter)
	m.Describe(MetricAttempts, "supervised attempts started", TypeCounter)
	m.Describe(MetricRetries, "supervised retries (attempts beyond the first)", TypeCounter)
	m.Describe(MetricCrashes, "supervised attempt crashes, by kind", TypeCounter)
	m.Describe(MetricShadowPoisonOps, "shadow poison operations, harvested at finalize", TypeCounter)
	m.Describe(MetricShadowUnpoisonOps, "shadow unpoison operations, harvested at finalize", TypeCounter)
	m.Describe(MetricShadowQuarantines, "shadow quarantine operations, harvested at finalize", TypeCounter)
	m.Describe(MetricShadowCheckedWrites, "writes validated against shadow memory, harvested at finalize", TypeCounter)
	m.Describe(MetricShadowViolations, "writes rejected by shadow memory, harvested at finalize", TypeCounter)
	m.Describe(MetricShadowPoisoned, "granules carrying shadow poison at finalize", TypeGauge)
	return c
}

// ObserveProcess instruments one simulated process: arms the passive
// access observer on its memory, subscribes to its event stream, and
// remembers it for the finalize-time harvest (shadow statistics, global
// object layouts for heatmap annotation).
func (c *Collector) ObserveProcess(p *machine.Process) {
	if c == nil || p == nil {
		return
	}
	c.mu.Lock()
	c.procs = append(c.procs, p)
	c.mu.Unlock()

	c.Metrics.Inc(MetricProcesses)
	c.Heat.SetSegments(p.Mem.Segments())
	c.Tracer.Event(CatProcess, "new-process", A("model", p.Model.Name))

	memory := p.Mem
	memory.SetAccessObserver(func(kind mem.AccessKind, addr mem.Addr, n uint64) {
		c.Tracer.Tick()
		seg := "unmapped"
		if s := memory.FindSegment(addr); s != nil {
			seg = s.Kind.String()
		}
		segL := L("segment", seg)
		if kind == mem.AccessWrite {
			c.Metrics.Inc(MetricWrites, segL)
			c.Metrics.Add(MetricWriteBytes, float64(n), segL)
			c.Metrics.Observe(MetricAccessSize, float64(n), L("op", "write"))
			c.Heat.RecordWrite(addr, n)
		} else {
			c.Metrics.Inc(MetricReads, segL)
			c.Metrics.Add(MetricReadBytes, float64(n), segL)
			c.Metrics.Observe(MetricAccessSize, float64(n), L("op", "read"))
		}
	})

	p.SetEventObserver(func(e machine.Event) {
		kind := e.Kind.String()
		c.Metrics.Inc(MetricMachineEvents, L("kind", kind))
		if v, ok := verdictOf(e.Kind); ok {
			c.Metrics.Inc(MetricVerdicts, L("verdict", v))
		}
		// Output events are high-volume program chatter; everything
		// else (calls, hijacks, aborts, dispatches) becomes a trace
		// instant.
		if e.Kind != machine.EvOutput {
			c.Tracer.Event(CatMachine, kind, A("detail", e.Detail), AHex("addr", uint64(e.Addr)))
		}
	})
}

// verdictOf maps abort/violation events onto defense-verdict labels.
func verdictOf(k machine.EventKind) (string, bool) {
	switch k {
	case machine.EvCanaryAbort:
		return "canary-abort", true
	case machine.EvShadowAbort:
		return "shadow-abort", true
	case machine.EvNXViolation:
		return "nx-violation", true
	case machine.EvGuardAbort:
		return "guard-abort", true
	case machine.EvShadowViolation:
		return "shadow-violation", true
	case machine.EvSegfault:
		return "segfault", true
	default:
		return "", false
	}
}

// ChaosHook returns the chaos.Config.OnInject adapter: every injection
// becomes a pn_chaos_faults_total increment and a chaos trace event.
func (c *Collector) ChaosHook() func(chaos.Injection) {
	if c == nil {
		return nil
	}
	return func(i chaos.Injection) {
		c.Metrics.Inc(MetricChaosFaults, L("kind", i.Kind))
		c.Tracer.Event(CatChaos, i.Kind,
			A("op", i.Op), AHex("addr", i.Addr), AInt("access", int64(i.Access)), A("detail", i.Detail))
	}
}

// --- resilience.Observer --------------------------------------------------

var _ resilience.Observer = (*Collector)(nil)

// AttemptStarted implements resilience.Observer: each supervised
// attempt opens a retry span.
func (c *Collector) AttemptStarted(job string, attempt int) {
	if c == nil {
		return
	}
	c.Metrics.Inc(MetricAttempts)
	if attempt > 1 {
		c.Metrics.Inc(MetricRetries)
	}
	c.mu.Lock()
	if c.attempts == nil {
		c.attempts = make(map[string]*Span)
	}
	c.mu.Unlock()
	sp := c.Tracer.Start(CatRetry, fmt.Sprintf("%s#%d", job, attempt), A("job", job), AInt("attempt", int64(attempt)))
	c.mu.Lock()
	c.attempts[job] = sp
	c.mu.Unlock()
}

// AttemptCrashed implements resilience.Observer: counts the crash and
// closes the attempt's retry span with the crash annotation.
func (c *Collector) AttemptCrashed(job string, rec resilience.CrashRecord) {
	if c == nil {
		return
	}
	c.Metrics.Inc(MetricCrashes, L("kind", rec.Kind))
	c.mu.Lock()
	sp := c.attempts[job]
	delete(c.attempts, job)
	c.mu.Unlock()
	sp.SetAttr("crash", rec.Kind)
	if rec.FaultKind != "" {
		sp.SetAttr("fault", rec.FaultKind)
	}
	if rec.Restored {
		sp.SetAttr("restored", fmt.Sprintf("clean=%v", rec.RestoreClean))
	}
	sp.Close()
}

// JobFinished implements resilience.Observer: counts the job by final
// status and closes any still-open attempt span.
func (c *Collector) JobFinished(res *resilience.Result) {
	if c == nil || res == nil {
		return
	}
	c.Metrics.Inc(MetricJobs, L("status", string(res.Status)))
	c.mu.Lock()
	sp := c.attempts[res.Job]
	delete(c.attempts, res.Job)
	c.mu.Unlock()
	sp.SetAttr("status", string(res.Status))
	sp.Close()
}

// --- finalize -------------------------------------------------------------

// Finalize harvests post-run state — shadow statistics and global
// object layouts (extents plus vptr slots) for heatmap annotation —
// then finishes the trace. Call it once, after the instrumented run.
func (c *Collector) Finalize() {
	if c == nil {
		return
	}
	c.mu.Lock()
	procs := append([]*machine.Process(nil), c.procs...)
	c.mu.Unlock()

	var shadowPoisoned int
	for _, p := range procs {
		if san := p.Sanitizer(); san != nil {
			st := san.Stats()
			c.Metrics.Add(MetricShadowPoisonOps, float64(st.PoisonOps))
			c.Metrics.Add(MetricShadowUnpoisonOps, float64(st.UnpoisonOps))
			c.Metrics.Add(MetricShadowQuarantines, float64(st.QuarantineOps))
			c.Metrics.Add(MetricShadowCheckedWrites, float64(st.CheckedWrites))
			c.Metrics.Add(MetricShadowViolations, float64(st.Violations))
			shadowPoisoned += san.PoisonedGranules()
			for _, r := range san.Regions() {
				c.Heat.AddRegion(fmt.Sprintf("shadow:%s@%#x", r.Kind, uint64(r.Base)), r.Base, r.Size)
			}
		}
	}
	if shadowPoisoned > 0 {
		c.Metrics.Set(MetricShadowPoisoned, float64(shadowPoisoned))
	}
	for _, p := range procs {
		for _, g := range p.Globals() {
			c.Heat.AddRegion(g.Name, g.Addr, g.Type.Size(p.Model))
			if cls, ok := g.Type.(*layout.Class); ok {
				if l, err := layout.Of(cls, p.Model); err == nil {
					for i, off := range l.VPtrOffsets {
						name := g.Name + ".__vptr"
						if len(l.VPtrOffsets) > 1 {
							name = fmt.Sprintf("%s.__vptr[%d]", g.Name, i)
						}
						c.Heat.AddRegion(name, g.Addr.Add(int64(off)), uint64(p.Model.PtrSize))
					}
				}
			}
		}
	}
	c.Tracer.Finish()
}
