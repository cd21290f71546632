package bench

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/apps/gossip"
	"repro/internal/apps/intruder"
	"repro/internal/modules/cache"
	"repro/internal/modules/cia"
	"repro/internal/modules/graph"
	"repro/internal/modules/plan"
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

func hostNote() string {
	return "real execution on this host: GOMAXPROCS = " + itoa(runtime.GOMAXPROCS(0))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// measure runs fn concurrently from T goroutines, opsPerThread calls
// each, and returns operations per millisecond.
func measure(threads, opsPerThread int, fn func(tid, i int)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for i := 0; i < opsPerThread; i++ {
				fn(t, i)
			}
		}(t)
	}
	wg.Wait()
	ms := float64(time.Since(start).Microseconds()) / 1000
	if ms == 0 {
		ms = 0.001
	}
	return float64(threads*opsPerThread) / ms
}

// Fig21Real measures the real ComputeIfAbsent modules.
func Fig21Real(cfg RealConfig) *Figure {
	fig := &Figure{
		ID:     "fig21-real",
		Title:  "ComputeIfAbsent throughput (real execution)",
		YLabel: "operations per millisecond",
		Xs:     cfg.Threads,
		Notes:  []string{hostNote()},
	}
	const keySpace = 1 << 17
	for _, pol := range cia.Policies() {
		s := Series{Name: pol, Values: map[int]float64{}}
		for _, T := range cfg.Threads {
			m := cia.New(pol, plan.Options{})
			rngs := make([]*rand.Rand, T)
			for t := range rngs {
				rngs[t] = rand.New(rand.NewSource(int64(t) + 1))
			}
			s.Values[T] = measure(T, cfg.OpsPerThread, func(t, _ int) {
				m.ComputeIfAbsent(rngs[t].Intn(keySpace))
			})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig22Real measures the real Graph modules with the paper's mix.
func Fig22Real(cfg RealConfig) *Figure {
	fig := &Figure{
		ID:     "fig22-real",
		Title:  "Graph throughput (real execution); 35/35/20/10 mix",
		YLabel: "operations per millisecond",
		Xs:     cfg.Threads,
		Notes:  []string{hostNote()},
	}
	const nodeSpace = 1 << 16
	for _, pol := range graph.Policies() {
		s := Series{Name: pol, Values: map[int]float64{}}
		for _, T := range cfg.Threads {
			g := graph.New(pol, plan.Options{})
			rngs := make([]*rand.Rand, T)
			for t := range rngs {
				rngs[t] = rand.New(rand.NewSource(int64(t) + 1))
			}
			s.Values[T] = measure(T, cfg.OpsPerThread, func(t, _ int) {
				rng := rngs[t]
				op := rng.Intn(100)
				a, b := rng.Intn(nodeSpace), rng.Intn(nodeSpace)
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
			})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig23Real measures the real Cache modules (90% Get / 10% Put).
func Fig23Real(cfg RealConfig) *Figure {
	fig := &Figure{
		ID:     "fig23-real",
		Title:  "Cache throughput (real execution); 90% Get / 10% Put",
		YLabel: "operations per millisecond",
		Xs:     cfg.Threads,
		Notes:  []string{hostNote()},
	}
	const keySpace = 1 << 20
	for _, pol := range cache.Policies() {
		s := Series{Name: pol, Values: map[int]float64{}}
		for _, T := range cfg.Threads {
			c := cache.New(pol, 5_000_000, plan.Options{})
			rngs := make([]*rand.Rand, T)
			for t := range rngs {
				rngs[t] = rand.New(rand.NewSource(int64(t) + 1))
			}
			s.Values[T] = measure(T, cfg.OpsPerThread, func(t, _ int) {
				rng := rngs[t]
				k := rng.Intn(keySpace)
				if rng.Intn(100) < 10 {
					c.Put(k, k)
				} else {
					c.Get(k)
				}
			})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig24Real runs the real Intruder application and reports speedup over
// one worker.
func Fig24Real(cfg RealConfig, wcfg intruder.Config) *Figure {
	fig := &Figure{
		ID:     "fig24-real",
		Title:  "Intruder speedup over one worker (real execution)",
		YLabel: "speedup (%)",
		Xs:     cfg.Threads,
		Notes:  []string{hostNote()},
	}
	w := intruder.Generate(wcfg)
	for _, pol := range intruder.Policies() {
		s := Series{Name: pol, Values: map[int]float64{}}
		timeFor := func(workers int) float64 {
			proc := intruder.NewProcessor(pol, plan.Options{})
			start := time.Now()
			intruder.Run(w, proc, workers)
			return float64(time.Since(start).Microseconds())
		}
		base := timeFor(1)
		for _, T := range cfg.Threads {
			s.Values[T] = base / timeFor(T) * 100
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig25Real runs the real GossipRouter under MPerf and reports speedup
// over one worker.
func Fig25Real(cfg RealConfig, mcfg gossip.MPerfConfig) *Figure {
	fig := &Figure{
		ID:     "fig25-real",
		Title:  "GossipRouter MPerf speedup over one worker (real execution)",
		YLabel: "speedup (%)",
		Xs:     cfg.Threads,
		Notes:  []string{hostNote()},
	}
	for _, pol := range gossip.Policies() {
		s := Series{Name: pol, Values: map[int]float64{}}
		timeFor := func(workers int) float64 {
			r := gossip.New(pol, mcfg.SendCost, plan.Options{})
			c := mcfg
			c.Workers = workers
			start := time.Now()
			gossip.RunMPerf(r, c)
			return float64(time.Since(start).Microseconds())
		}
		base := timeFor(1)
		for _, T := range cfg.Threads {
			s.Values[T] = base / timeFor(T) * 100
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}
