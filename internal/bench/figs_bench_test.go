package bench

import (
	"math/rand"
	"testing"

	"repro/internal/apps/gossip"
	"repro/internal/apps/intruder"
	"repro/internal/modules/cache"
	"repro/internal/modules/cia"
	"repro/internal/modules/graph"
)

// benchMix runs mix once per policy under RunParallel: real execution
// of the same op mix the real-execution figure measures. Each policy's
// module is built once, outside b.Run's function, so every b.N round
// runs on the state the rounds before it left, not on a fresh module
// that a share of the round refills.
func benchMix(b *testing.B, policies []string, mix moduleMix) {
	for _, pol := range policies {
		_, op := mix(pol)
		b.Run(pol, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(1))
				for pb.Next() {
					op(rng)
				}
			})
		})
	}
}

// BenchmarkFig21 measures the ComputeIfAbsent module per policy (E1).
func BenchmarkFig21(b *testing.B) { benchMix(b, cia.Policies(), ciaMix) }

// BenchmarkFig22 measures the Graph module per policy with the paper's
// 35/35/20/10 mix (E2).
func BenchmarkFig22(b *testing.B) { benchMix(b, graph.Policies(), graphMix) }

// BenchmarkFig23 measures the Cache module per policy, 90% Get / 10%
// Put (E3).
func BenchmarkFig23(b *testing.B) { benchMix(b, cache.Policies(), cacheMix) }

// BenchmarkFig24 measures one whole Intruder run per iteration (E4,
// scaled-down workload).
func BenchmarkFig24(b *testing.B) {
	w := intruder.Generate(intruder.Config{Attacks: 10, MaxLength: 128, Flows: 1024, Seed: 1})
	for _, pol := range intruder.Policies() {
		b.Run(pol, func(b *testing.B) {
			intruder.NewProcessor(pol) // synthesize the plan outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				proc := intruder.NewProcessor(pol)
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
			gossip.New(pol) // synthesize the plan outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := gossip.New(pol)
				if res := gossip.RunMPerf(r, cfg); res.FramesDelivered != want {
					b.Fatalf("delivered %d frames, want %d", res.FramesDelivered, want)
				}
			}
		})
	}
}
