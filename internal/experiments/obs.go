package experiments

import (
	"repro/internal/defense"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/report"
)

// Instrument is the instrumentation one experiment run threads into
// every process it builds. It is a plain argument, so concurrent runs
// each carry their own. The zero value runs uninstrumented.
type Instrument struct {
	// Collector, when non-nil, observes every process, opens a span per
	// scenario run, and receives chaos injections and supervised
	// attempts.
	Collector *obs.Collector
	// OnProcess, when non-nil, runs on every process after Collector
	// has observed it (pntrace arms its chaos overlay here).
	OnProcess func(*machine.Process)
}

// config returns cfg with in's hooks chained ahead of cfg's own
// OnProcess; with the zero Instrument it returns cfg unchanged.
func (in Instrument) config(cfg defense.Config) defense.Config {
	if in.Collector == nil && in.OnProcess == nil {
		return cfg
	}
	own := cfg.OnProcess
	cfg.OnProcess = func(p *machine.Process) {
		in.Collector.ObserveProcess(p)
		if in.OnProcess != nil {
			in.OnProcess(p)
		}
		if own != nil {
			own(p)
		}
	}
	return cfg
}

// RunInstrumented runs e under in, whose Collector must be non-nil: it
// opens the experiment root span (ref, title, then attrs), runs,
// finalizes the collector, and returns the experiment's table. It is
// the programmatic face of cmd/pntrace.
func RunInstrumented(e Experiment, in Instrument, attrs ...obs.Attr) (*report.Table, error) {
	col := in.Collector
	root := col.Tracer.Start(obs.CatExperiment, e.ID,
		append([]obs.Attr{obs.A("ref", e.Ref), obs.A("title", e.Title)}, attrs...)...)
	t, err := e.Run(in)
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	root.Close()
	col.Finalize()
	return t, err
}
