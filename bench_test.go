package repro

// One benchmark per experiment table (E1–E18, see EXPERIMENTS.md), plus
// microbenchmarks for the substrates. Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/heap"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/serial"
	"repro/internal/stackm"
)

// benchScenario runs one attack scenario per iteration and asserts the
// expected outcome, so a regression in attack behaviour fails the bench.
func benchScenario(b *testing.B, id string, cfg defense.Config, wantStatus string) {
	b.Helper()
	s, err := attack.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := s.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if o.Status() != wantStatus {
			b.Fatalf("%s under %s: status = %s, want %s", id, cfg.Name, o.Status(), wantStatus)
		}
	}
}

func BenchmarkE01BssOverflow(b *testing.B) {
	benchScenario(b, "bss-overflow", defense.None, "SUCCESS")
}

func BenchmarkE02HeapOverflow(b *testing.B) {
	benchScenario(b, "heap-overflow", defense.None, "SUCCESS")
}

func BenchmarkE03StackRet(b *testing.B) {
	b.Run("plain", func(b *testing.B) { benchScenario(b, "stack-ret", defense.None, "SUCCESS") })
	b.Run("canary", func(b *testing.B) { benchScenario(b, "stack-ret", defense.StackGuardOnly, "detected") })
	b.Run("canary-skip", func(b *testing.B) { benchScenario(b, "canary-skip", defense.StackGuardOnly, "SUCCESS") })
}

func BenchmarkE04ArcCode(b *testing.B) {
	b.Run("arc", func(b *testing.B) { benchScenario(b, "arc-injection", defense.None, "SUCCESS") })
	b.Run("code", func(b *testing.B) { benchScenario(b, "code-injection", defense.None, "SUCCESS") })
	b.Run("code-nx", func(b *testing.B) { benchScenario(b, "code-injection", defense.NXOnly, "prevented") })
}

func BenchmarkE05GlobalVar(b *testing.B) {
	benchScenario(b, "var-bss", defense.None, "SUCCESS")
}

func BenchmarkE06LocalVar(b *testing.B) {
	benchScenario(b, "var-stack", defense.None, "SUCCESS")
}

func BenchmarkE07MemberVar(b *testing.B) {
	benchScenario(b, "member-var", defense.None, "SUCCESS")
}

func BenchmarkE08Vptr(b *testing.B) {
	b.Run("bss", func(b *testing.B) { benchScenario(b, "vptr-bss", defense.None, "SUCCESS") })
	b.Run("stack", func(b *testing.B) { benchScenario(b, "vptr-stack", defense.None, "SUCCESS") })
}

func BenchmarkE09FuncPtr(b *testing.B) {
	benchScenario(b, "funcptr", defense.None, "SUCCESS")
}

func BenchmarkE10VarPtr(b *testing.B) {
	benchScenario(b, "varptr", defense.None, "SUCCESS")
}

func BenchmarkE11TwoStep(b *testing.B) {
	b.Run("stack", func(b *testing.B) { benchScenario(b, "array-2step-stack", defense.None, "SUCCESS") })
	b.Run("bss", func(b *testing.B) { benchScenario(b, "array-2step-bss", defense.None, "SUCCESS") })
}

func BenchmarkE12InfoLeak(b *testing.B) {
	b.Run("array", func(b *testing.B) { benchScenario(b, "infoleak-array", defense.None, "SUCCESS") })
	b.Run("object", func(b *testing.B) { benchScenario(b, "infoleak-object", defense.None, "SUCCESS") })
	b.Run("sanitized", func(b *testing.B) { benchScenario(b, "infoleak-array", defense.SanitizeOnly, "no-effect") })
}

func BenchmarkE13DoS(b *testing.B) {
	benchScenario(b, "dos-loop", defense.None, "SUCCESS")
}

func BenchmarkE14MemLeak(b *testing.B) {
	b.Run("leaky", func(b *testing.B) { benchScenario(b, "memleak", defense.None, "SUCCESS") })
	b.Run("placement-delete", func(b *testing.B) { benchScenario(b, "memleak", defense.DeleteOnly, "no-effect") })
}

func BenchmarkE15DefenseMatrix(b *testing.B) {
	configs := defense.Catalog()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix, err := attack.RunMatrix(context.Background(), configs)
		if err != nil {
			b.Fatal(err)
		}
		if len(matrix) != len(attack.Catalog()) {
			b.Fatalf("matrix rows = %d", len(matrix))
		}
	}
}

// BenchmarkMatrixPass runs one scenario's 42 cells (14 defenses × 3 data
// models) per iteration, cloning images from a shared template pool as
// the serving tier does. The sub-benchmarks sum to one single-threaded
// pass over the 1218-cell matrix; docs/perf.md records the split.
func BenchmarkMatrixPass(b *testing.B) {
	pool := mem.NewImagePool()
	for _, s := range attack.Catalog() {
		b.Run(s.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range defense.Catalog() {
					for _, m := range []layout.Model{layout.ILP32, layout.ILP32i386, layout.LP64} {
						cfg := d
						cfg.Model = m
						cfg.Pool = pool
						if _, err := s.Run(cfg); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

func BenchmarkE16Analyzer(b *testing.B) {
	corpus := analyzer.Corpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range corpus {
			if _, err := analyzer.Analyze(e.Src, analyzer.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE16Baseline(b *testing.B) {
	corpus := analyzer.Corpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range corpus {
			if _, err := analyzer.Baseline(e.Src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E17: defense overhead microbenchmarks ---------------------------------

func benchWorld(b *testing.B) (*mem.Image, *layout.Class) {
	b.Helper()
	img, err := mem.NewProcessImage(mem.ImageConfig{})
	if err != nil {
		b.Fatal(err)
	}
	student := layout.NewClass("Student").
		AddField("gpa", layout.Double).
		AddField("year", layout.Int).
		AddField("semester", layout.Int)
	if _, err := layout.Of(student, layout.ILP32i386); err != nil {
		b.Fatal(err)
	}
	return img, student
}

func BenchmarkE17PlacementNewUnchecked(b *testing.B) {
	img, student := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlacementNew(img.Mem, layout.ILP32i386, img.BSS.Base, student); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE17PlacementNewChecked(b *testing.B) {
	img, student := benchWorld(b)
	arena := core.Arena{Base: img.BSS.Base, Size: 64, Label: "pool"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckedPlacementNew(img.Mem, layout.ILP32i386, arena, student); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE17Sanitize(b *testing.B) {
	img, _ := benchWorld(b)
	arena := core.Arena{Base: img.BSS.Base, Size: 1024}
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Sanitize(img.Mem, arena); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCall(b *testing.B, opts machine.Options) {
	b.Helper()
	p, err := machine.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.DefineFunc("f", []stackm.LocalSpec{{Name: "x", Type: layout.Int}},
		func(*machine.Process, *stackm.Frame) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Call("f"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE17CallPlain(b *testing.B) {
	benchCall(b, machine.Options{})
}

func BenchmarkE17CallStackGuard(b *testing.B) {
	benchCall(b, machine.Options{StackGuard: true})
}

func BenchmarkE17CallShadowStack(b *testing.B) {
	benchCall(b, machine.Options{ShadowStack: true})
}

// --- substrate microbenchmarks ----------------------------------------------

func BenchmarkLayoutOf(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		student := layout.NewClass("Student").
			AddField("gpa", layout.Double).
			AddField("year", layout.Int).
			AddField("semester", layout.Int)
		grad := layout.NewClass("GradStudent", student).
			AddField("ssn", layout.ArrayOf(layout.Int, 3))
		if _, err := layout.Of(grad, layout.ILP32i386); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeapAllocFree(b *testing.B) {
	img, _ := benchWorld(b)
	a, err := heap.NewOnImage(img)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := a.Alloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialParse(b *testing.B) {
	wire := "GradStudent{gpa=4.0,year=2009,semester=1,ssn=[111,222,333]}"
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := serial.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVirtualDispatch(b *testing.B) {
	p, err := machine.New(machine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cls := layout.NewClass("Poly").AddVirtual("f").AddField("x", layout.Int)
	g, err := p.DefineGlobal("obj", cls, false)
	if err != nil {
		b.Fatal(err)
	}
	o, err := p.Construct(cls, g.Addr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.VirtualCall(o, "f"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE18ModelGenerality(b *testing.B) {
	for _, m := range []layout.Model{layout.ILP32i386, layout.ILP32, layout.LP64} {
		m := m
		b.Run(m.Name, func(b *testing.B) {
			cfg := defense.Config{Name: "none-" + m.Name, Model: m}
			benchScenarioCfg(b, "stack-ret", cfg, "SUCCESS")
		})
	}
}

// benchScenarioCfg is benchScenario for ad-hoc configurations.
func benchScenarioCfg(b *testing.B, id string, cfg defense.Config, wantStatus string) {
	b.Helper()
	s, err := attack.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := s.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if o.Status() != wantStatus {
			b.Fatalf("%s under %s: status = %s, want %s", id, cfg.Name, o.Status(), wantStatus)
		}
	}
}
