package bench

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/apps/gossip"
	"repro/internal/apps/intruder"
	"repro/internal/modules/cache"
	"repro/internal/modules/cia"
	"repro/internal/modules/graph"
)

// Real-execution measurements run the actual modules with goroutines on
// the host and report wall-clock throughput. On the paper's 32-core
// machine these curves would match the simulated ones; on a small host
// they mainly expose the constant per-transaction overhead of each
// policy (the simulated figures carry the scaling story — DESIGN.md
// substitution 3). The host's core count is attached as a note.

// RealConfig scales the real-execution runs.
type RealConfig struct {
	OpsPerThread int
	Threads      []int
}

// realFig is an empty real-execution figure over cfg's thread counts,
// noting the host's core count.
func realFig(cfg RealConfig, id, title, yLabel string) *Figure {
	return &Figure{
		ID:     id,
		Title:  title,
		YLabel: yLabel,
		Xs:     cfg.Threads,
		Notes:  []string{"real execution on this host: GOMAXPROCS = " + strconv.Itoa(runtime.GOMAXPROCS(0))},
	}
}

// measure runs op concurrently from T goroutines, opsPerThread calls
// each, every goroutine drawing from its own perThreadRngs source, and
// returns operations per millisecond.
func measure(threads, opsPerThread int, op func(rng *rand.Rand)) float64 {
	rngs := perThreadRngs(threads)
	start := time.Now()
	parallel(threads, func(t int) {
		for i := 0; i < opsPerThread; i++ {
			op(rngs[t])
		}
	})
	ms := float64(time.Since(start).Microseconds()) / 1000
	if ms == 0 {
		ms = 0.001
	}
	return float64(threads*opsPerThread) / ms
}

// parallel runs fn(0), …, fn(n-1) on n goroutines and waits for all.
func parallel(n int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

func perThreadRngs(n int) []*rand.Rand {
	out := make([]*rand.Rand, n)
	for i := range out {
		out[i] = rand.New(rand.NewSource(int64(i) + 1))
	}
	return out
}

// moduleMix builds one composite module under policy pol and returns it
// with the module's op mix: one transaction drawn from rng. Each mix is
// written once, for its real-execution figure and for StatsReport.
type moduleMix func(pol string) (module any, op func(rng *rand.Rand))

// ciaMix is Fig 21's workload: ComputeIfAbsent over 2^17 keys.
func ciaMix(pol string) (any, func(*rand.Rand)) {
	m := cia.New(pol)
	return m, func(rng *rand.Rand) { m.ComputeIfAbsent(rng.Intn(1 << 17)) }
}

// graphMix is Fig 22's workload: the paper's 35/35/20/10 mix of
// successor and predecessor queries, edge inserts and removes over
// 2^16 nodes.
func graphMix(pol string) (any, func(*rand.Rand)) {
	g := graph.New(pol)
	return g, func(rng *rand.Rand) {
		op := rng.Intn(100)
		a, b := rng.Intn(1<<16), rng.Intn(1<<16)
		switch {
		case op < 35:
			g.FindSuccessors(a)
		case op < 70:
			g.FindPredecessors(a)
		case op < 90:
			g.InsertEdge(a, b)
		default:
			g.RemoveEdge(a, b)
		}
	}
}

// cacheMix is Fig 23's workload: 90% Get / 10% Put over 2^20 keys.
func cacheMix(pol string) (any, func(*rand.Rand)) {
	c := cache.New(pol, 5_000_000)
	return c, func(rng *rand.Rand) {
		k := rng.Intn(1 << 20)
		if rng.Intn(100) < 10 {
			c.Put(k, k)
		} else {
			c.Get(k)
		}
	}
}

// realFigure measures mix for every policy at every thread count, on a
// fresh module per cell.
func realFigure(cfg RealConfig, id, title string, policies []string, mix moduleMix) *Figure {
	fig := realFig(cfg, id, title, "operations per millisecond")
	fig.addSeries(policies, func(pol string, T int) float64 {
		_, op := mix(pol)
		return measure(T, cfg.OpsPerThread, op)
	})
	return fig
}

// Fig21Real measures the real ComputeIfAbsent modules.
func Fig21Real(cfg RealConfig) *Figure {
	return realFigure(cfg, "fig21-real", "ComputeIfAbsent throughput (real execution)", cia.Policies(), ciaMix)
}

// Fig22Real measures the real Graph modules with the paper's mix.
func Fig22Real(cfg RealConfig) *Figure {
	return realFigure(cfg, "fig22-real", "Graph throughput (real execution); 35/35/20/10 mix", graph.Policies(), graphMix)
}

// Fig23Real measures the real Cache modules (90% Get / 10% Put).
func Fig23Real(cfg RealConfig) *Figure {
	return realFigure(cfg, "fig23-real", "Cache throughput (real execution); 90% Get / 10% Put", cache.Policies(), cacheMix)
}

// speedupFigure reports, for every policy, the time one worker takes
// over the time each thread count takes, in percent. setup builds a
// fresh run of the workload for a policy and a worker count; only the
// returned run is timed.
func speedupFigure(cfg RealConfig, id, title string, policies []string, setup func(pol string, workers int) (run func())) *Figure {
	fig := realFig(cfg, id, title, "speedup (%)")
	fig.addSpeedups(policies, func(pol string, workers int) float64 {
		run := setup(pol, workers)
		start := time.Now()
		run()
		return float64(time.Since(start).Microseconds())
	})
	return fig
}

// Fig24Real runs the real Intruder application and reports speedup over
// one worker.
func Fig24Real(cfg RealConfig, wcfg intruder.Config) *Figure {
	w := intruder.Generate(wcfg)
	return speedupFigure(cfg, "fig24-real", "Intruder speedup over one worker (real execution)", intruder.Policies(),
		func(pol string, workers int) func() {
			proc := intruder.NewProcessor(pol)
			return func() { intruder.Run(w, proc, workers) }
		})
}

// Fig25Real runs the real GossipRouter under MPerf and reports speedup
// over one worker.
func Fig25Real(cfg RealConfig, mcfg gossip.MPerfConfig) *Figure {
	return speedupFigure(cfg, "fig25-real", "GossipRouter MPerf speedup over one worker (real execution)", gossip.Policies(),
		func(pol string, workers int) func() {
			r := gossip.New(pol)
			c := mcfg
			c.Workers = workers
			return func() { gossip.RunMPerf(r, c) }
		})
}
