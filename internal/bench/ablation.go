package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// AblationSim reproduces the design-choice ablations of DESIGN.md
// (A1–A5) on the ComputeIfAbsent workload:
//
//	A1 refinement off   — generic lock(+): one exclusive whole-ADT mode;
//	A2 abstract values  — φ range n ∈ {1, 4, 16, 64};
//	A3 partitioning off — one internal mechanism lock serializes every
//	                      acquisition (Fig 20's single internal lock);
//	A4 fast path off    — every acquisition takes its partition's
//	                      internal lock even when uncontended;
//	A5 mechanism v1     — unpadded counters: every counter RMW holds its
//	                      shared cache line, modeled as 16 counters per
//	                      line (64B line / 4B counter). The real-execution
//	                      side of A5 (broadcast wakeups, O(modes) scans)
//	                      was measured before the v1 mechanism was
//	                      deleted; BENCH_lockmech.json is the record.
func AblationSim(cfg SimConfig) *Figure {
	const keySpace = 1 << 17
	fig := &Figure{
		ID:     "ablation",
		Title:  "ComputeIfAbsent under ablations of the synthesis/runtime design choices",
		YLabel: "transactions per kilotick (virtual-time simulation)",
		Xs:     ThreadCounts,
		Notes: []string{
			"ours-64 = full system; norefine = A1; phi-n = A2; nopart = A3; nofast = A4; mechv1 = A5",
		},
	}

	type variant struct {
		name     string
		buckets  int   // φ range (1 for norefine)
		mech     int   // number of internal mechanism locks (0 = none modeled)
		mechHold int64 // ticks the internal lock is held per acquisition
	}
	// The internal lock's critical section scans the conflicting
	// counters of its mechanism, so its hold time grows with the number
	// of modes the mechanism serves: the single unpartitioned mechanism
	// scans all 64 bucket modes, a per-partition one scans its own.
	variants := []variant{
		{name: "ours-64", buckets: 64},
		{name: "norefine", buckets: 1},
		{name: "phi-1", buckets: 1},
		{name: "phi-4", buckets: 4},
		{name: "phi-16", buckets: 16},
		{name: "nopart", buckets: 64, mech: 1, mechHold: 4},
		{name: "nofast", buckets: 64, mech: 64, mechHold: 1},
		// A5: the v1 mechanism's unpadded counter array. A 64-byte line
		// holds 16 int32 counters, so acquisitions of 16 consecutive
		// bucket modes serialize on one line; the four line resources
		// model that false sharing.
		{name: "mechv1", buckets: 64, mech: 4, mechHold: 1},
	}

	build := func(v variant, threads int) func(tid int) func() []sim.Step {
		seen := make(map[int]bool, keySpace/4)
		stripes := sim.NewStriped(v.name, v.buckets)
		var mechs []*sim.Res
		for i := 0; i < v.mech; i++ {
			mechs = append(mechs, sim.NewMutex(fmt.Sprintf("mech%d", i)))
		}
		return func(tid int) func() []sim.Step {
			rng := rand.New(rand.NewSource(int64(tid)*7919 + cfg.Seed))
			return countdown(DefaultN(threads, cfg.TxnsPerThread), func() []sim.Step {
				k := rng.Intn(keySpace)
				miss := !seen[k]
				if miss {
					seen[k] = true
				}
				b := 0
				if v.buckets > 1 {
					b = bucket(k) % v.buckets
				}
				var steps []sim.Step
				steps = append(steps, sim.W(semOverhead))
				if len(mechs) > 0 {
					// Contiguous bucket ranges share a mechanism resource (for
					// mechv1, the 16 counters of one cache line).
					m := mechs[b*len(mechs)/v.buckets]
					steps = append(steps, sim.Acq(m, 0), sim.W(v.mechHold), sim.Rel(m, 0))
				}
				steps = append(steps, sim.Acq(stripes, b), sim.W(opCost))
				if miss {
					steps = append(steps, sim.W(computeCost), sim.W(opCost))
				}
				steps = append(steps, sim.Rel(stripes, b))
				return steps
			})
		}
	}

	for _, v := range variants {
		s := Series{Name: v.name, Values: map[int]float64{}}
		for _, T := range fig.Xs {
			s.Values[T] = runPolicy(T, build(v, T))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}
