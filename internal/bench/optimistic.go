package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/apps/gossip"
	"repro/internal/apps/rangestore"
	"repro/internal/core"
	"repro/internal/modules/plan"
)

// OptimisticBench is the hybrid-execution experiment behind
// `benchall -exp optimistic`: read-mostly workloads on two applications,
// each run in two variants —
//
//	optimistic  — reads run transaction-free on a core.Snapshot (observe
//	              version counters, read lock-free, validate; fall back
//	              to the pessimistic prologue on conflict, with the
//	              per-instance adaptive gate closing the fast path when
//	              the validation-failure rate crosses its threshold)
//	pessimistic — reads take the ordinary semantic-lock prologue, the
//	              baseline behavior before this experiment
//
// on two workloads —
//
//	gossip     — membership probes (Lookup: outer map get + member map
//	             get, two mechanisms observed) against register/
//	             unregister churn on the same group
//	rangestore — whole-store scans (values() mode observed on every
//	             shard) against fused two-shard pair toggles; the pair
//	             discipline keeps the entry count even in every serial
//	             state, so any validated scan returning an odd count is
//	             a torn read that escaped validation (counted in the
//	             torn_scans criterion, which must be zero)
//
// sweeping the read fraction over {0.5, 0.9, 0.99}. Writes are the
// complement of the fraction; both variants run the identical op
// sequence. Cells follow the lockmech conventions: variants alternate
// pass by pass, a warm-up pass absorbs first-touch noise, the best
// measured pass is kept.
type OptimisticConfig struct {
	OpsPerThread  int
	Threads       []int
	ReadFractions []float64
}

// OptimisticCell is one (app, read fraction, variant, threads)
// measurement. FailureRate is validation failures over optimistic
// attempts (0 for pessimistic cells, which never attempt).
type OptimisticCell struct {
	App          string  `json:"app"`
	ReadFraction float64 `json:"read_fraction"`
	Variant      string  `json:"variant"`
	Threads      int     `json:"threads"`
	OpsPerMs     float64 `json:"ops_per_ms"`
	FailureRate  float64 `json:"validation_failure_rate"`
}

// OptimisticReport is the full result, the content of
// BENCH_optimistic.json.
type OptimisticReport struct {
	GOMAXPROCS   int                                   `json:"gomaxprocs"`
	OpsPerThread int                                   `json:"ops_per_thread"`
	Cells        []OptimisticCell                      `json:"cells"`
	Ratio        map[string]map[string]map[int]float64 `json:"ratio_optimistic_over_pessimistic"`
	Criteria     map[string]float64                    `json:"criteria"`
}

const (
	optOptimistic  = "optimistic"
	optPessimistic = "pessimistic"
	optReps        = 5
)

// optPass is one measured pass: ops/ms plus the optimistic failure rate
// harvested from the app's instances.
type optPass struct {
	opsPerMs float64
	failRate float64
	torn     int
}

// failRateOf sums hits and retries across instances.
func failRateOf(sems []*core.Semantic) float64 {
	var hits, retries uint64
	for _, s := range sems {
		st := s.Stats()
		hits += st.OptimisticHits
		retries += st.OptimisticRetries
	}
	if hits+retries == 0 {
		return 0
	}
	return float64(retries) / float64(hits+retries)
}

// runOptGossipPass drives one router: lookups of a stable member
// against register/unregister churn, read fraction f. Each goroutine
// churns its own member so writes conflict on the group's maps, not on
// each other's identity.
func runOptGossipPass(variant string, threads, opsPerThread int, f float64) optPass {
	r := gossip.NewOurs(0, plan.Options{})
	for _, m := range [2]string{"m0", "m1"} {
		r.Register("grp", m, gossip.NewConn(m, 0))
	}
	churn := make([]*gossip.Conn, threads)
	for t := range churn {
		churn[t] = gossip.NewConn(fmt.Sprintf("w%d", t), 0)
	}
	cut := int(f * 100)
	opsPerMs := measure(threads, opsPerThread, func(t, i int) {
		if i%100 < cut {
			if variant == optOptimistic {
				r.Lookup("grp", "m0")
			} else {
				r.LookupPessimistic("grp", "m0")
			}
			return
		}
		name := churn[t].Member
		if i&1 == 0 {
			r.Register("grp", name, churn[t])
		} else {
			r.Unregister("grp", name)
		}
	})
	return optPass{opsPerMs: opsPerMs, failRate: failRateOf(r.Sems())}
}

// runOptRangestorePass drives one store: whole-store scans against
// fused pair toggles, read fraction f. Scans returning an odd count
// are torn reads (the pair discipline keeps every serial state even)
// and are counted — validation must make that count zero.
func runOptRangestorePass(variant string, threads, opsPerThread int, f float64) optPass {
	s := rangestore.New(8, 256)
	for k := 0; k < 32; k++ {
		s.PutPair(k)
	}
	cut := int(f * 100)
	torn := make([]int, threads)
	opsPerMs := measure(threads, opsPerThread, func(t, i int) {
		if i%100 < cut {
			var n int
			if variant == optOptimistic {
				n = s.Scan()
			} else {
				n = s.ScanPessimistic()
			}
			if n%2 != 0 {
				torn[t]++
			}
			return
		}
		s.PutPair((t*131 + i*7) % (s.Capacity() / 2))
	})
	p := optPass{opsPerMs: opsPerMs, failRate: failRateOf(s.Sems())}
	for _, n := range torn {
		p.torn += n
	}
	return p
}

// OptimisticBench runs the full experiment and computes the summary
// criteria.
func OptimisticBench(cfg OptimisticConfig) *OptimisticReport {
	if cfg.OpsPerThread == 0 {
		cfg.OpsPerThread = 20000
	}
	if len(cfg.Threads) == 0 {
		cfg.Threads = []int{1, 2, 4, 8, 16}
	}
	if len(cfg.ReadFractions) == 0 {
		cfg.ReadFractions = []float64{0.5, 0.9, 0.99}
	}
	rep := &OptimisticReport{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		OpsPerThread: cfg.OpsPerThread,
		Ratio:        map[string]map[string]map[int]float64{},
		Criteria:     map[string]float64{},
	}

	apps := []struct {
		name string
		run  func(variant string, T int, ops int, f float64) optPass
	}{
		{"gossip", runOptGossipPass},
		{"rangestore", runOptRangestorePass},
	}
	variants := []string{optOptimistic, optPessimistic}

	tornTotal := 0
	var f99Ratios, f99Fail []float64
	perAppF99 := map[string][]float64{}
	perAppF50 := map[string][]float64{}
	for _, app := range apps {
		rep.Ratio[app.name] = map[string]map[int]float64{}
		for _, f := range cfg.ReadFractions {
			fk := strconv.FormatFloat(f, 'f', 2, 64)
			rep.Ratio[app.name][fk] = map[int]float64{}
			for _, T := range cfg.Threads {
				for _, v := range variants {
					app.run(v, T, cfg.OpsPerThread/10+1, f) // warm-up
				}
				best := map[string]optPass{}
				for r := 0; r < optReps; r++ {
					for _, v := range variants {
						p := app.run(v, T, cfg.OpsPerThread, f)
						tornTotal += p.torn
						if b, ok := best[v]; !ok || p.opsPerMs > b.opsPerMs {
							best[v] = p
						}
					}
				}
				for _, v := range variants {
					p := best[v]
					fr := p.failRate
					if v == optPessimistic {
						fr = 0
					}
					rep.Cells = append(rep.Cells, OptimisticCell{
						App: app.name, ReadFraction: f, Variant: v,
						Threads: T, OpsPerMs: p.opsPerMs, FailureRate: fr,
					})
				}
				if p := best[optPessimistic].opsPerMs; p > 0 {
					ratio := best[optOptimistic].opsPerMs / p
					rep.Ratio[app.name][fk][T] = ratio
					switch {
					case f >= 0.985:
						if T >= 8 {
							f99Ratios = append(f99Ratios, ratio)
							perAppF99[app.name] = append(perAppF99[app.name], ratio)
						}
						f99Fail = append(f99Fail, best[optOptimistic].failRate)
					case f <= 0.515:
						perAppF50[app.name] = append(perAppF50[app.name], ratio)
					}
				}
			}
		}
	}

	rep.Criteria["optimistic_over_pessimistic_f99_T8plus"] = geomean(f99Ratios)
	for app, rs := range perAppF99 {
		rep.Criteria[app+"_optimistic_over_pessimistic_f99_T8plus"] = geomean(rs)
	}
	mean := 0.0
	for _, x := range f99Fail {
		mean += x
	}
	if len(f99Fail) > 0 {
		mean /= float64(len(f99Fail))
	}
	rep.Criteria["validation_failure_rate_f99"] = mean
	// The write-heavy guardrail: at f=0.5 the adaptive gate should park
	// the optimistic path, leaving at most a small admission overhead.
	// Judged per app on the geomean across thread counts — a single
	// noisy cell on a small host is measurement error, a consistent
	// cross-thread deficit is a real regression.
	worstF50 := 0.0
	for _, rs := range perAppF50 {
		if reg := (1 - geomean(rs)) * 100; reg > worstF50 {
			worstF50 = reg
		}
	}
	rep.Criteria["f50_worst_regression_pct"] = worstF50
	rep.Criteria["torn_scans"] = float64(tornTotal)
	return rep
}

// Format renders the report as aligned tables, one per (app, fraction).
func (r *OptimisticReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Optimistic — hybrid lock-free reads vs pessimistic prologue\n")
	fmt.Fprintf(&b, "GOMAXPROCS=%d, %d ops/goroutine per pass\n", r.GOMAXPROCS, r.OpsPerThread)

	type cellKey struct {
		app     string
		frac    float64
		variant string
		threads int
	}
	cells := map[cellKey]OptimisticCell{}
	apps := []string{}
	fracs := map[string][]float64{}
	threads := []int{}
	seenApp := map[string]bool{}
	seenFrac := map[string]map[float64]bool{}
	seenT := map[int]bool{}
	for _, c := range r.Cells {
		cells[cellKey{c.App, c.ReadFraction, c.Variant, c.Threads}] = c
		if !seenApp[c.App] {
			seenApp[c.App] = true
			apps = append(apps, c.App)
			seenFrac[c.App] = map[float64]bool{}
		}
		if !seenFrac[c.App][c.ReadFraction] {
			seenFrac[c.App][c.ReadFraction] = true
			fracs[c.App] = append(fracs[c.App], c.ReadFraction)
		}
		if !seenT[c.Threads] {
			seenT[c.Threads] = true
			threads = append(threads, c.Threads)
		}
	}
	sort.Ints(threads)
	for _, app := range apps {
		for _, f := range fracs[app] {
			fk := strconv.FormatFloat(f, 'f', 2, 64)
			fmt.Fprintf(&b, "\n%s, read fraction %s (ops/ms)\n", app, fk)
			fmt.Fprintf(&b, "%-8s%14s%14s%8s%10s\n", "threads", "optimistic", "pessimistic", "ratio", "failrate")
			for _, T := range threads {
				o := cells[cellKey{app, f, optOptimistic, T}]
				p := cells[cellKey{app, f, optPessimistic, T}]
				fmt.Fprintf(&b, "%-8d%14.1f%14.1f%8.2f%10.3f\n",
					T, o.OpsPerMs, p.OpsPerMs, r.Ratio[app][fk][T], o.FailureRate)
			}
		}
	}
	fmt.Fprintf(&b, "\ncriteria:\n")
	for _, k := range sortedStringKeys(r.Criteria) {
		fmt.Fprintf(&b, "  %s = %.3f\n", k, r.Criteria[k])
	}
	return b.String()
}
