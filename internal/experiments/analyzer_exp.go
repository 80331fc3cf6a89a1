package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/stackm"
)

// runE16 compares the placement-new analyzer against the traditional
// baseline scanner over the listing corpus — reproducing the paper's §1
// claim that existing tools detect none of these vulnerabilities.
func runE16(Instrument) (*report.Table, error) {
	t := report.NewTable("E16 — §1/§5.1/§7: static analyzer vs traditional scanner on the listing corpus",
		"program (paper ref)", "vulnerable", "analyzer findings", "baseline findings")
	var vulnTotal, analyzerHits, baselineHits int
	for _, e := range analyzer.Corpus() {
		r, err := analyzer.Analyze(e.Src, analyzer.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiments: corpus %s: %w", e.Name, err)
		}
		bf, err := analyzer.Baseline(e.Src)
		if err != nil {
			return nil, err
		}
		codes := strings.Join(r.Codes(), " ")
		if codes == "" {
			codes = "-"
		}
		// The corpus entry expectations define what counts as a
		// placement-new vulnerability; the strcpy control is classic.
		placementVuln := e.Vulnerable && len(e.WantCodes) > 0
		if placementVuln {
			vulnTotal++
			hit := true
			for _, c := range e.WantCodes {
				if !r.HasCode(c) {
					hit = false
				}
			}
			if hit {
				analyzerHits++
			}
			if len(bf) > 0 {
				baselineHits++
			}
		}
		t.AddRow(e.Name+" ("+e.Ref+")", yesNo(e.Vulnerable), codes, strconv.Itoa(len(bf)))
	}
	t.AddRow("TOTAL placement-new vulns detected",
		strconv.Itoa(vulnTotal)+" programs",
		fmt.Sprintf("%d/%d", analyzerHits, vulnTotal),
		fmt.Sprintf("%d/%d", baselineHits, vulnTotal))
	return t, nil
}

// runE17 measures per-operation overhead of the §5.1/§5.2 defenses with
// wall-clock loops (bench_test.go provides the testing.B versions).
func runE17(in Instrument) (*report.Table, error) {
	t := report.NewTable("E17 — §5.1: defense overhead microbenchmarks",
		"operation", "ns/op", "relative")

	timeOp := func(iters int, f func() error) (float64, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
	}

	img, err := mem.NewProcessImage(mem.ImageConfig{})
	if err != nil {
		return nil, err
	}
	student := layout.NewClass("Student").
		AddField("gpa", layout.Double).
		AddField("year", layout.Int).
		AddField("semester", layout.Int)
	arena := core.Arena{Base: img.BSS.Base, Size: 64, Label: "pool"}

	const iters = 20000
	unchecked, err := timeOp(iters, func() error {
		_, err := core.PlacementNew(img.Mem, layout.ILP32i386, arena.Base, student)
		return err
	})
	if err != nil {
		return nil, err
	}
	checked, err := timeOp(iters, func() error {
		_, err := core.CheckedPlacementNew(img.Mem, layout.ILP32i386, arena, student)
		return err
	})
	if err != nil {
		return nil, err
	}
	sanitize, err := timeOp(iters, func() error {
		return core.Sanitize(img.Mem, core.Arena{Base: img.BSS.Base, Size: 1024})
	})
	if err != nil {
		return nil, err
	}

	callCost := func(cfg defense.Config) (float64, error) {
		p, err := in.config(cfg).NewProcess()
		if err != nil {
			return 0, err
		}
		if _, err := p.DefineFunc("f", []stackm.LocalSpec{{Name: "x", Type: layout.Int}},
			func(*machine.Process, *stackm.Frame) error { return nil }); err != nil {
			return 0, err
		}
		return timeOp(iters, func() error { return p.Call("f") })
	}
	plain, err := callCost(defense.NXOnly)
	if err != nil {
		return nil, err
	}
	canary, err := callCost(defense.Config{NXStack: true, StackGuard: true})
	if err != nil {
		return nil, err
	}
	shadow, err := callCost(defense.Config{NXStack: true, ShadowStack: true})
	if err != nil {
		return nil, err
	}

	rel := func(v, base float64) string {
		if base == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", v/base)
	}
	t.AddRow("placement new (unchecked)", fmt.Sprintf("%.0f", unchecked), "1.00x")
	t.AddRow("placement new (checked, §5.1)", fmt.Sprintf("%.0f", checked), rel(checked, unchecked))
	t.AddRow("sanitize 1 KiB (§5.1)", fmt.Sprintf("%.0f", sanitize), rel(sanitize, unchecked))
	t.AddRow("call+return (plain)", fmt.Sprintf("%.0f", plain), "1.00x")
	t.AddRow("call+return (StackGuard)", fmt.Sprintf("%.0f", canary), rel(canary, plain))
	t.AddRow("call+return (shadow stack)", fmt.Sprintf("%.0f", shadow), rel(shadow, plain))
	return t, nil
}
