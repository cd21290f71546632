package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/apps/intruder"
	"repro/internal/core"
	"repro/internal/sim"
)

// Cost model (virtual ticks). Absolute throughput numbers follow these
// constants; the figures' comparative shapes follow the blocking
// structure, which is the property under reproduction.
const (
	opCost      = 8  // one ADT operation (hash + bucket access)
	computeCost = 20 // the CIA 128-byte computation
	semOverhead = 3  // semantic lock: φ, mode lookup, counter scan
	mutexCost   = 1  // plain mutex / striped / RW acquisition
	sendCost    = 40 // gossip: one frame write to a connection
	popCost     = 2  // queue pop
)

// SimConfig scales the simulated workload.
type SimConfig struct {
	TxnsPerThread int
	Seed          int64
}

// phi64 buckets keys the way the compiled tables do.
var phi64 = core.NewPhi(64)

func bucket(k int) int { return phi64.Abstract(k) }

// throughput converts (makespan, txns) into transactions per kilotick.
func throughput(makespan, txns int64) float64 {
	if makespan == 0 {
		return 0
	}
	return float64(txns) / float64(makespan) * 1000
}

// runPolicy builds a simulation with T threads from a per-thread
// generator factory and returns its throughput.
func runPolicy(threads int, gen func(tid int) func() []sim.Step) float64 {
	s := sim.New()
	for t := 0; t < threads; t++ {
		s.AddThread(gen(t))
	}
	mk, txns := s.Run()
	return throughput(mk, txns)
}

// countdown wraps a step builder into an n-shot generator.
func countdown(n int, build func() []sim.Step) func() []sim.Step {
	i := 0
	return func() []sim.Step {
		if i >= n {
			return nil
		}
		i++
		return build()
	}
}

// ---- Fig 21: ComputeIfAbsent ----

// Fig21Sim reproduces Fig 21: ComputeIfAbsent throughput vs threads for
// Ours / Global / 2PL / Manual / V8. Key space 2^17; the computation is
// charged only on the insert path, and key presence evolves over the
// run exactly as in the real module.
func Fig21Sim(cfg SimConfig) *Figure {
	const keySpace = 1 << 17
	fig := &Figure{
		ID:     "fig21",
		Title:  "ComputeIfAbsent throughput as a function of the number of threads",
		YLabel: "transactions per kilotick (virtual-time simulation)",
		Xs:     ThreadCounts,
		Notes: []string{
			"10M ops/thread in the paper; scaled per SimConfig.TxnsPerThread",
			"Manual = 64-way lock striping; V8 = per-bucket computeIfAbsent",
		},
	}

	build := func(name string, threads int) func(tid int) func() []sim.Step {
		seen := make(map[int]bool, keySpace/4)
		var gmu *sim.Res
		var stripes *sim.Res
		switch name {
		case "global", "2pl":
			gmu = sim.NewMutex(name)
		case "ours", "manual", "v8":
			stripes = sim.NewStriped(name, 64)
		}
		return func(tid int) func() []sim.Step {
			rng := rand.New(rand.NewSource(int64(tid)*7919 + cfg.Seed))
			return countdown(DefaultN(threads, cfg.TxnsPerThread), func() []sim.Step {
				k := rng.Intn(keySpace)
				miss := !seen[k]
				if miss {
					seen[k] = true
				}
				body := []sim.Step{sim.W(opCost)} // get
				if miss {
					body = append(body, sim.W(computeCost), sim.W(opCost)) // compute + put
				}
				switch name {
				case "global":
					return wrap(gmu, 0, mutexCost, body)
				case "2pl":
					return wrap(gmu, 0, mutexCost+1, body) // per-instance lock + txn bookkeeping
				case "manual":
					return wrap(stripes, bucket(k), mutexCost, body)
				case "v8":
					return wrap(stripes, bucket(k), mutexCost, body)
				default: // ours
					return wrap(stripes, bucket(k), semOverhead, body)
				}
			})
		}
	}

	fig.addSeries([]string{"ours", "global", "2pl", "manual", "v8"}, func(name string, T int) float64 {
		return runPolicy(T, build(name, T))
	})
	return fig
}

// wrap brackets body with an acquisition of (r, mode), charging the
// lock overhead before the acquire.
func wrap(r *sim.Res, mode int, overhead int64, body []sim.Step) []sim.Step {
	out := make([]sim.Step, 0, len(body)+3)
	out = append(out, sim.W(overhead), sim.Acq(r, mode))
	out = append(out, body...)
	out = append(out, sim.Rel(r, mode))
	return out
}

// DefaultN scales per-thread transaction counts so total work stays
// roughly constant across thread counts (like fixed-time throughput
// runs); it keeps the longest sweeps tractable.
func DefaultN(threads, txnsPerThread int) int {
	n := txnsPerThread
	if threads > 8 {
		n = txnsPerThread / 2
	}
	return n
}

// ---- Fig 22: Graph ----

// GraphMix is a Graph workload mix in percent (must sum to 100).
type GraphMix struct {
	FindSucc, FindPred, Insert, Remove int
}

// Fig22Sim reproduces Fig 22: Graph throughput vs threads with the
// paper's mix — 35% find successors, 35% find predecessors, 20% insert
// edge, 10% remove edge — over two striped-RW multimap resources.
func Fig22Sim(cfg SimConfig) *Figure {
	return Fig22SimMix(cfg, GraphMix{35, 35, 20, 10}, "fig22")
}

// Fig22SimMix runs the Graph figure under an arbitrary mix — §6.1 notes
// the results are similar across the workloads of Hawkins et al.; the
// read-heavy and write-heavy variants below let that be checked.
func Fig22SimMix(cfg SimConfig, mix GraphMix, id string) *Figure {
	const nodeSpace = 1 << 16
	fig := &Figure{
		ID:     id,
		Title:  "Graph throughput as a function of the number of threads",
		YLabel: "transactions per kilotick (virtual-time simulation)",
		Xs:     ThreadCounts,
		Notes: []string{fmt.Sprintf("%d%% find-succ, %d%% find-pred, %d%% insert, %d%% remove",
			mix.FindSucc, mix.FindPred, mix.Insert, mix.Remove)},
	}
	findCut := mix.FindSucc
	readCut := mix.FindSucc + mix.FindPred

	build := func(name string, threads int) func(tid int) func() []sim.Step {
		var succs, preds *sim.Res
		var gmu, succsMu, predsMu *sim.Res
		switch name {
		case "global":
			gmu = sim.NewMutex("g")
		case "2pl":
			succsMu, predsMu = sim.NewMutex("s"), sim.NewMutex("p")
		default: // ours, manual
			succs = sim.NewStripedRW("succs", 64)
			preds = sim.NewStripedRW("preds", 64)
		}
		overhead := int64(mutexCost)
		if name == "ours" {
			overhead = semOverhead
		}
		return func(tid int) func() []sim.Step {
			rng := rand.New(rand.NewSource(int64(tid)*104729 + cfg.Seed))
			return countdown(DefaultN(threads, cfg.TxnsPerThread), func() []sim.Step {
				op := rng.Intn(100)
				a, b := rng.Intn(nodeSpace), rng.Intn(nodeSpace)
				switch name {
				case "global":
					if op < readCut {
						return wrap(gmu, 0, mutexCost, []sim.Step{sim.W(opCost)})
					}
					return wrap(gmu, 0, mutexCost, []sim.Step{sim.W(opCost), sim.W(opCost)})
				case "2pl":
					if op < findCut {
						return wrap(succsMu, 0, mutexCost, []sim.Step{sim.W(opCost)})
					}
					if op < readCut {
						return wrap(predsMu, 0, mutexCost, []sim.Step{sim.W(opCost)})
					}
					return []sim.Step{
						sim.W(mutexCost), sim.Acq(succsMu, 0),
						sim.W(mutexCost), sim.Acq(predsMu, 0),
						sim.W(opCost), sim.W(opCost),
						sim.Rel(predsMu, 0), sim.Rel(succsMu, 0),
					}
				default: // ours / manual share the mode structure
					rd := func(res *sim.Res, n int) int { return 2 * bucket(n) }
					wr := func(res *sim.Res, n int) int { return 2*bucket(n) + 1 }
					switch {
					case op < findCut:
						return wrap(succs, rd(succs, a), overhead, []sim.Step{sim.W(opCost)})
					case op < readCut:
						return wrap(preds, rd(preds, a), overhead, []sim.Step{sim.W(opCost)})
					default:
						return []sim.Step{
							sim.W(overhead), sim.Acq(succs, wr(succs, a)),
							sim.W(opCost),
							sim.W(overhead), sim.Acq(preds, wr(preds, b)),
							sim.W(opCost),
							sim.Rel(preds, wr(preds, b)), sim.Rel(succs, wr(succs, a)),
						}
					}
				}
			})
		}
	}

	fig.addSeries([]string{"ours", "global", "2pl", "manual"}, func(name string, T int) float64 {
		return runPolicy(T, build(name, T))
	})
	return fig
}

// ---- Fig 23: Cache ----

// Fig23Sim reproduces Fig 23: Cache throughput vs threads, 90% Get /
// 10% Put, size large enough that eden never flushes (5000K in the
// paper). The synthesized Put mode contains size() and therefore
// conflicts with every Get mode — Ours scales on the Get side only,
// while Manual's striping scales both.
func Fig23Sim(cfg SimConfig) *Figure {
	return Fig23SimMix(cfg, 90, "fig23")
}

// Fig23SimMix runs the Cache figure with an arbitrary Get percentage
// (§6.1: "results similar to the other workload in [9]").
func Fig23SimMix(cfg SimConfig, getPct int, id string) *Figure {
	const keySpace = 1 << 20
	fig := &Figure{
		ID:     id,
		Title:  "Cache throughput as a function of the number of threads",
		YLabel: "transactions per kilotick (virtual-time simulation)",
		Xs:     ThreadCounts,
		Notes:  []string{fmt.Sprintf("%d%% Get, %d%% Put, size=5000K (eden never flushes)", getPct, 100-getPct)},
	}

	const putMode = 64 // ours: the size()-carrying put mode conflicts with all
	build := func(name string, threads int) func(tid int) func() []sim.Step {
		inEden := make(map[int]bool)
		var eden, longterm *sim.Res
		var gmu *sim.Res
		var stripes *sim.Res
		switch name {
		case "global", "2pl":
			gmu = sim.NewMutex("g")
		case "manual":
			stripes = sim.NewStriped("stripes", 64)
		case "ours":
			eden = sim.NewRes("eden", 65, func(x, y int) bool {
				if x == putMode || y == putMode {
					return false
				}
				return x != y
			})
			longterm = sim.NewStripedRW("long", 64)
		}
		return func(tid int) func() []sim.Step {
			rng := rand.New(rand.NewSource(int64(tid)*31337 + cfg.Seed))
			return countdown(DefaultN(threads, cfg.TxnsPerThread), func() []sim.Step {
				k := rng.Intn(keySpace)
				isPut := rng.Intn(100) >= getPct
				if isPut {
					inEden[k] = true
				}
				hit := inEden[k]
				switch name {
				case "global":
					if isPut {
						return wrap(gmu, 0, mutexCost, []sim.Step{sim.W(opCost), sim.W(opCost)})
					}
					body := []sim.Step{sim.W(opCost)}
					if !hit {
						body = append(body, sim.W(opCost)) // longterm miss
					}
					return wrap(gmu, 0, mutexCost, body)
				case "2pl":
					if isPut {
						return wrap(gmu, 0, mutexCost+1, []sim.Step{sim.W(opCost), sim.W(opCost)})
					}
					body := []sim.Step{sim.W(opCost)}
					if !hit {
						body = append(body, sim.W(opCost))
					}
					return wrap(gmu, 0, mutexCost+1, body)
				case "manual":
					body := []sim.Step{sim.W(opCost)}
					if isPut || !hit {
						body = append(body, sim.W(opCost))
					}
					return wrap(stripes, bucket(k), mutexCost, body)
				default: // ours
					if isPut {
						return wrap(eden, putMode, semOverhead, []sim.Step{sim.W(opCost), sim.W(opCost)})
					}
					if hit {
						return wrap(eden, bucket(k), semOverhead, []sim.Step{sim.W(opCost)})
					}
					// eden miss: nested longterm read lock
					return []sim.Step{
						sim.W(semOverhead), sim.Acq(eden, bucket(k)),
						sim.W(opCost),
						sim.W(semOverhead), sim.Acq(longterm, 2*bucket(k)),
						sim.W(opCost),
						sim.Rel(longterm, 2*bucket(k)), sim.Rel(eden, bucket(k)),
					}
				}
			})
		}
	}

	fig.addSeries([]string{"ours", "global", "2pl", "manual"}, func(name string, T int) float64 {
		return runPolicy(T, build(name, T))
	})
	return fig
}

// ---- Fig 24: Intruder ----

// Fig24Sim reproduces Fig 24: Intruder speedup over single-threaded
// execution, configuration "-a 10 -l 256 -n 16384 -s 1". Packets come
// from the real generator; each worker pops the shared capture queue,
// runs the reassembly transaction under the policy's locks, and scans
// completed flows.
func Fig24Sim(cfg SimConfig) *Figure {
	fig := &Figure{
		ID:     "fig24",
		Title:  "Intruder speedup over a single-threaded execution",
		YLabel: "speedup (%, virtual-time simulation)",
		Xs:     ThreadCounts,
		Notes:  []string{`STAMP configuration "-a 10 -l 256 -n 16384 -s 1"`},
	}
	wcfg := intruder.PaperConfig()
	if cfg.TxnsPerThread < 20000 {
		wcfg.Flows = 2048 // scaled-down workloads shrink the trace too
	}
	trace := intruder.Generate(wcfg)

	run := func(name string, threads int) float64 {
		var fmap, gmu *sim.Res
		inMu := sim.NewMutex("input")
		// decoded queue: mode 0 = enqueue (commutes with itself),
		// mode 1 = dequeue (conflicts with everything).
		decRes := sim.NewRes("decoded", 2, func(a, b int) bool { return a == 0 && b == 0 })
		switch name {
		case "global":
			gmu = sim.NewMutex("g")
		case "2pl":
			fmap = sim.NewMutex("fmap")
		default:
			fmap = sim.NewStriped("fmap", 64)
		}
		received := make(map[int]int)
		s := sim.New()
		for t := 0; t < threads; t++ {
			tid := t
			i := -1
			s.AddThread(func() []sim.Step {
				i++
				idx := tid + i*threads // static partition of the capture trace
				if idx >= len(trace.Packets) {
					return nil
				}
				p := trace.Packets[idx]
				received[p.FlowID]++
				complete := received[p.FlowID] == p.NumFrags

				steps := []sim.Step{sim.W(mutexCost), sim.Acq(inMu, 0), sim.W(popCost), sim.Rel(inMu, 0)}
				body := []sim.Step{sim.W(opCost)} // map get
				if received[p.FlowID] == 1 {
					body = append(body, sim.W(opCost)) // put fresh flow state
				}
				body = append(body, sim.W(int64(len(p.Payload)/8+1))) // fragment insert
				if complete {
					body = append(body, sim.W(opCost)) // remove
				}
				switch name {
				case "global":
					steps = append(steps, wrap(gmu, 0, mutexCost, body)...)
					if complete {
						steps = append(steps, wrap(gmu, 0, mutexCost, []sim.Step{sim.W(popCost)})...)
					}
				case "2pl":
					steps = append(steps, wrap(fmap, 0, mutexCost+1, body)...)
					if complete {
						steps = append(steps, wrap(decRes, 1, mutexCost, []sim.Step{sim.W(popCost)})...)
					}
				case "manual":
					steps = append(steps, wrap(fmap, bucket(p.FlowID), mutexCost, body)...)
					if complete {
						// linearizable queue: plain mutex-cost push + pop
						steps = append(steps, sim.W(mutexCost), sim.W(popCost), sim.W(mutexCost), sim.W(popCost))
					}
				default: // ours
					inner := append([]sim.Step{}, body...)
					if complete {
						// enqueue inside the txn under the commuting mode
						inner = append(inner,
							sim.W(semOverhead), sim.Acq(decRes, 0), sim.W(popCost), sim.Rel(decRes, 0))
					}
					steps = append(steps, wrap(fmap, bucket(p.FlowID), semOverhead, inner)...)
					if complete {
						steps = append(steps, wrap(decRes, 1, semOverhead, []sim.Step{sim.W(popCost)})...)
					}
				}
				if complete {
					// detection: thread-local signature scan
					steps = append(steps, sim.W(int64(len(p.Payload)/4+8)))
				}
				return steps
			})
		}
		mk, _ := s.Run()
		return float64(mk)
	}

	fig.addSpeedups([]string{"ours", "global", "2pl", "manual"}, run)
	return fig
}

// ---- Fig 25: GossipRouter ----

// Fig25Sim reproduces Fig 25: GossipRouter speedup over a single-core
// execution under the MPerf workload (16 clients x 5000 messages, one
// group). Routing I/O happens inside the atomic sections; multicasts
// hold the member map's values() mode, which commutes with itself, so
// Ours overlaps the sends while Global and 2PL serialize them.
func Fig25Sim(cfg SimConfig) *Figure {
	fig := &Figure{
		ID:     "fig25",
		Title:  "GossipRouter speedup over a single-core execution",
		YLabel: "speedup (%, virtual-time simulation)",
		Xs:     ThreadCounts,
		Notes:  []string{"MPerf: 16 clients x 5000 messages; x-axis = active cores (worker count)"},
	}
	const clients = 16
	messages := 5000
	if cfg.TxnsPerThread < 20000 {
		messages = 1000
	}

	run := func(name string, threads int) float64 {
		var groupsRes, membersRW, gmu, groupsMu, membersMu *sim.Res
		switch name {
		case "global":
			gmu = sim.NewMutex("g")
		case "2pl":
			groupsMu = sim.NewMutex("groups")
			membersMu = sim.NewMutex("members")
		default:
			groupsRes = sim.NewStripedRW("groups", 64)
			membersRW = sim.NewRW("members")
		}
		overhead := int64(mutexCost)
		if name == "ours" {
			overhead = semOverhead
		}
		total := clients * messages
		per := (total + threads - 1) / threads
		s := sim.New()
		for t := 0; t < threads; t++ {
			tid := t
			i := -1
			s.AddThread(func() []sim.Step {
				i++
				if i >= per || tid*per+i >= total {
					return nil
				}
				n := tid*per + i
				unicast := (n*7)%100 < 10
				send := int64(clients) * sendCost
				memberMode := 0 // read mode: values() / get(dst)
				if unicast {
					send = sendCost
				}
				switch name {
				case "global":
					return wrap(gmu, 0, mutexCost, []sim.Step{sim.W(opCost), sim.W(opCost), sim.W(send)})
				case "2pl":
					return []sim.Step{
						sim.W(mutexCost), sim.Acq(groupsMu, 0),
						sim.W(opCost),
						sim.W(mutexCost), sim.Acq(membersMu, 0),
						sim.W(opCost), sim.W(send),
						sim.Rel(membersMu, 0), sim.Rel(groupsMu, 0),
					}
				default: // ours / manual: read modes on the member map
					gm := 2 * bucket(12345) // the single group's read stripe
					return []sim.Step{
						sim.W(overhead), sim.Acq(groupsRes, gm),
						sim.W(opCost),
						sim.W(overhead), sim.Acq(membersRW, memberMode),
						sim.W(opCost), sim.W(send),
						sim.Rel(membersRW, memberMode), sim.Rel(groupsRes, gm),
					}
				}
			})
		}
		mk, _ := s.Run()
		return float64(mk)
	}

	fig.addSpeedups([]string{"ours", "global", "2pl", "manual"}, run)
	return fig
}
