// Package repro's top-level benchmarks: the compiler side of the
// evaluation (E6 in DESIGN.md) and runtime micro-benchmarks. The
// figure benchmarks E1–E5 live in internal/bench, beside the op mixes
// they run, and the A1–A3 ablation benchmark in internal/modules/cia.
// These measure real execution on the host; the thread-scaling curves
// of the paper are regenerated by `go run ./cmd/benchall` on the
// virtual-time simulator.
package repro

import (
	"testing"

	"repro/internal/adtspecs"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/modules/cia"
	"repro/internal/modules/plan"
	"repro/internal/papersec"
	"repro/internal/synth"
)

// BenchmarkFig19Compile measures mode-table compilation for the Fig 19
// configuration (E6) — the compiler-side cost of §5.
func BenchmarkFig19Compile(b *testing.B) {
	spec := adtspecs.Set()
	sets := []core.SymSet{
		core.SymSetOf(core.SymOpOf("add", core.Star())),
		core.SymSetOf(core.SymOpOf("add", core.ConstArg(5))),
		core.SymSetOf(core.SymOpOf("add", core.VarArg("i")), core.SymOpOf("remove", core.VarArg("j"))),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.NewModeTable(spec, sets, core.TableOptions{Phi: core.NewPhi(8)})
	}
}

// BenchmarkSemanticAcquire measures the runtime lock fast path: an
// uncontended acquire/release pair in a keyed mode (the per-transaction
// overhead the evaluation trades against parallelism).
func BenchmarkSemanticAcquire(b *testing.B) {
	p := cia.BuildPlan(plan.Options{})
	tbl := p.Table("Map")
	ref := p.Ref(0, "m")
	sem := core.NewSemantic(tbl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := ref.Mode(i)
		sem.Acquire(m)
		sem.Release(m)
	}
}

// BenchmarkSemanticAcquireParallel measures the same under parallel
// load across commuting modes.
func BenchmarkSemanticAcquireParallel(b *testing.B) {
	p := cia.BuildPlan(plan.Options{})
	sem := core.NewSemantic(p.Table("Map"))
	ref := p.Ref(0, "m")
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			m := ref.Mode(i)
			sem.Acquire(m)
			sem.Release(m)
		}
	})
}

// BenchmarkSynthesize measures the compiler itself: the full pipeline
// (classes, restrictions, insertion, optimizations, refinement, mode
// compilation) on the paper's running examples.
func BenchmarkSynthesize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := synth.Synthesize(&synth.Program{
			Sections: []*ir.Atomic{papersec.Fig1(), papersec.Fig7(), papersec.Fig9()},
			Specs:    adtspecs.All(),
		}, synth.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModeSelect measures the hot-path dynamic mode selection
// (§5.1): φ of the key plus the dense lookup.
func BenchmarkModeSelect(b *testing.B) {
	p := cia.BuildPlan(plan.Options{})
	ref := p.Ref(0, "m")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ref.Mode(i)
	}
}
