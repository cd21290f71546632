// Package repro's top-level benchmarks: one testing.B benchmark per
// evaluation figure of the paper (E1–E6 in DESIGN.md) plus runtime
// micro-benchmarks and the A1–A4 ablations. These measure real
// execution on the host; the thread-scaling curves of the paper are
// regenerated by `go run ./cmd/benchall` on the virtual-time simulator.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/adtspecs"
	"repro/internal/apps/gossip"
	"repro/internal/apps/intruder"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/modules/cache"
	"repro/internal/modules/cia"
	"repro/internal/modules/graph"
	"repro/internal/modules/plan"
	"repro/internal/papersec"
	"repro/internal/synth"
)

// BenchmarkFig21 measures the ComputeIfAbsent module per policy (E1).
func BenchmarkFig21(b *testing.B) {
	const keySpace = 1 << 17
	for _, pol := range cia.Policies() {
		b.Run(pol, func(b *testing.B) {
			m := cia.New(pol, plan.Options{})
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(1))
				for pb.Next() {
					m.ComputeIfAbsent(rng.Intn(keySpace))
				}
			})
		})
	}
}

// BenchmarkFig22 measures the Graph module per policy with the paper's
// 35/35/20/10 mix (E2).
func BenchmarkFig22(b *testing.B) {
	const nodeSpace = 1 << 16
	for _, pol := range graph.Policies() {
		b.Run(pol, func(b *testing.B) {
			g := graph.New(pol, plan.Options{})
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(1))
				for pb.Next() {
					op := rng.Intn(100)
					x, y := rng.Intn(nodeSpace), rng.Intn(nodeSpace)
					switch {
					case op < 35:
						g.FindSuccessors(x)
					case op < 70:
						g.FindPredecessors(x)
					case op < 90:
						g.InsertEdge(x, y)
					default:
						g.RemoveEdge(x, y)
					}
				}
			})
		})
	}
}

// BenchmarkFig23 measures the Cache module per policy, 90% Get / 10%
// Put (E3).
func BenchmarkFig23(b *testing.B) {
	const keySpace = 1 << 20
	for _, pol := range cache.Policies() {
		b.Run(pol, func(b *testing.B) {
			c := cache.New(pol, 5_000_000, plan.Options{})
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(1))
				for pb.Next() {
					k := rng.Intn(keySpace)
					if rng.Intn(100) < 10 {
						c.Put(k, k)
					} else {
						c.Get(k)
					}
				}
			})
		})
	}
}

// BenchmarkFig24 measures one whole Intruder run per iteration (E4,
// scaled-down workload).
func BenchmarkFig24(b *testing.B) {
	w := intruder.Generate(intruder.Config{Attacks: 10, MaxLength: 128, Flows: 1024, Seed: 1})
	for _, pol := range intruder.Policies() {
		b.Run(pol, func(b *testing.B) {
			intruder.NewProcessor(pol, plan.Options{}) // warm the plan cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				proc := intruder.NewProcessor(pol, plan.Options{})
				if got := intruder.Run(w, proc, 4); got != w.AttackFlows {
					b.Fatalf("detected %d attacks, want %d", got, w.AttackFlows)
				}
			}
		})
	}
}

// BenchmarkFig25 measures one MPerf run per iteration (E5, scaled-down
// workload).
func BenchmarkFig25(b *testing.B) {
	cfg := gossip.MPerfConfig{Clients: 16, Messages: 250, UnicastRatio: 10, SendCost: 60, Workers: 4}
	want := gossip.ExpectedFrames(cfg)
	for _, pol := range gossip.Policies() {
		b.Run(pol, func(b *testing.B) {
			gossip.New(pol, plan.Options{}) // warm the plan cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := gossip.New(pol, plan.Options{})
				if res := gossip.RunMPerf(r, cfg); res.FramesDelivered != want {
					b.Fatalf("delivered %d frames, want %d", res.FramesDelivered, want)
				}
			}
		})
	}
}

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
	ref := p.Ref(0, "map")
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
	ref := p.Ref(0, "map")
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

// BenchmarkAblation measures the CIA "ours" variant under the design
// ablations (A1–A3) — real execution; the scaling ablation curves come
// from `benchall -exp ablation`.
func BenchmarkAblation(b *testing.B) {
	const keySpace = 1 << 17
	variants := map[string]plan.Options{
		"full-64":     {},
		"norefine-A1": {NoRefine: true},
		"phi4-A2":     {AbstractValues: 4},
		"nopart-A3":   {NoPartition: true},
	}
	for name, opt := range variants {
		b.Run(name, func(b *testing.B) {
			m := cia.New("ours", opt)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(1))
				for pb.Next() {
					m.ComputeIfAbsent(rng.Intn(keySpace))
				}
			})
		})
	}
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
	ref := p.Ref(0, "map")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ref.Mode(i)
	}
}
