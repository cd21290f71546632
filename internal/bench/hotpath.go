package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adtspecs"
	"repro/internal/apps/gossip"
	"repro/internal/apps/intruder"
	"repro/internal/core"
	"repro/internal/modules/plan"
)

//semlockvet:file-ignore txndiscipline -- this harness times prologues below the Atomically layer

// HotpathBench is the fused-prologue experiment behind
// `benchall -exp hotpath`: it measures the acquisition hot path of the
// fused prologue (Txn.LockBatch + interned mode selection) against the
// sequential prologue it replaces, on five components:
//
//	gossip / intruder — the real applications, "ours-fused" (fixed-
//	                    arity interned selectors) against "ours"
//	                    (variadic Binder closures), ops/ms at each
//	                    worker count. sendCost is zero so the prologue
//	                    dominates the section body.
//	mode              — mode-construction microbenchmark: the full
//	                    symbolic build (ModeForValues), the variadic
//	                    Binder closure, the fixed-arity Binder1 and
//	                    the interned SetRef.Mode1 selector on a
//	                    repeated same-value selection; ns/op, B/op,
//	                    allocs/op via testing.Benchmark. The interned
//	                    paths must report allocs/op = 0.
//	batch             — core workload: a fused same-instance run, three
//	                    key modes on one instance as one AcquireBatch
//	                    (one claim pass, one conflict scan, at most one
//	                    union-mask waiter) against the three sequential
//	                    Acquire calls it replaces; ns per prologue plus
//	                    the fast-path ratio from Semantic.Stats, in two
//	                    regimes. "disjoint" (per-goroutine key triples)
//	                    is the pure fast path and reports the batch's
//	                    honest uncontended overhead: AcquireBatch is not
//	                    straight-lined the way Acquire is (variadic
//	                    slice, partition scan, claim loop), so expect
//	                    its speedup below 1 — the batch buys the union
//	                    waiter, intra-batch self-permission, and the
//	                    prologue fusion the app cells measure, not a
//	                    faster uncontended claim. "contended" (every
//	                    goroutine wants the same triple, held across a
//	                    yield) exercises the blocking path; on a 1-core
//	                    host it is parity-bound because a blocked
//	                    sequential prologue also parks only once per
//	                    cycle. (Cross-instance batches deliberately
//	                    degenerate to per-instance acquisition in rank
//	                    order — their win is the selector half, which
//	                    the app cells measure end to end.)
//	watchdog          — the getWaiter clock gating: ns per contended
//	                    acquire/release cycle on an unwatched instance
//	                    against the same instance registered with a
//	                    Watchdog (which turns on the per-waiter
//	                    time.Now sample the sampler reads).
//
// Cells follow the lockmech conventions: variants alternate pass by
// pass so host drift hits both sides of every comparison, a warm-up
// pass absorbs first-touch noise, and of the measured passes the best
// is kept.
type HotpathConfig struct {
	OpsPerThread int   // app-driver operations per goroutine per pass
	TotalOps     int   // core prologue cycles per cell (split across goroutines)
	Threads      []int // goroutine counts; defaults to ThreadCounts
}

// HotpathAppCell is one (app, variant, threads) throughput measurement.
type HotpathAppCell struct {
	App      string  `json:"app"`
	Variant  string  `json:"variant"` // "fused" or "sequential"
	Threads  int     `json:"threads"`
	OpsPerMs float64 `json:"ops_per_ms"`
}

// HotpathModeCell is one mode-construction microbenchmark result.
type HotpathModeCell struct {
	Path        string  `json:"path"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// HotpathBatchCell is one core AcquireBatch-vs-sequential measurement.
type HotpathBatchCell struct {
	Workload      string  `json:"workload"` // "disjoint" or "contended"
	Variant       string  `json:"variant"`  // "batched" or "sequential"
	Threads       int     `json:"threads"`
	NsPerPrologue float64 `json:"ns_per_prologue"`
	FastPathRatio float64 `json:"fast_path_ratio"`
}

// HotpathWatchdogCell is one watched-vs-unwatched contended cycle cost.
type HotpathWatchdogCell struct {
	Watched    bool    `json:"watched"`
	Threads    int     `json:"threads"`
	NsPerCycle float64 `json:"ns_per_cycle"`
}

// HotpathReport is the full result of the hotpath experiment, the
// content of BENCH_hotpath.json.
type HotpathReport struct {
	GOMAXPROCS   int                        `json:"gomaxprocs"`
	OpsPerThread int                        `json:"app_ops_per_thread"`
	TotalOps     int                        `json:"core_ops_per_cell"`
	App          []HotpathAppCell           `json:"app_cells"`
	AppSpeedup   map[string]map[int]float64 `json:"app_speedup_fused_over_sequential"`
	Mode         []HotpathModeCell          `json:"mode_cells"`
	Batch        []HotpathBatchCell         `json:"batch_cells"`
	Watchdog     []HotpathWatchdogCell      `json:"watchdog_cells"`
	Criteria     map[string]float64         `json:"criteria"`
}

const (
	hotpathFused = "fused"      // app policy "ours-fused"
	hotpathSeq   = "sequential" // app policy "ours"

	// hotpathReps measured passes per cell; the best one is kept:
	// single-pass cells at T=1 are dominated by scheduler and frequency
	// noise on small hosts, which the extremum over repetitions removes.
	// App cells get extra passes — whole-application passes carry more
	// scheduler and GC noise than the tight core loops.
	hotpathReps    = 3
	hotpathAppReps = 5
)

var (
	hotpathVariants = []string{hotpathFused, hotpathSeq}
	hotpathPolicies = map[string]string{hotpathFused: "ours-fused", hotpathSeq: "ours"}

	// Sinks keep the benchmarked selectors from being optimized away.
	hotpathModeSink    core.ModeID
	hotpathModeObjSink core.Mode
)

// hotpathTable builds the one-class key table the core cells run on:
// identity φ over 64 buckets, so distinct small keys are distinct
// counter slots and key modes are self-conflicting (they contain put).
func hotpathTable() (*core.ModeTable, core.SetRef) {
	keySet := core.SymSetOf(
		core.SymOpOf("get", core.VarArg("k")),
		core.SymOpOf("put", core.VarArg("k"), core.Star()),
		core.SymOpOf("remove", core.VarArg("k")),
	)
	assign := make(map[core.Value]int, 64)
	for i := 0; i < 64; i++ {
		assign[i] = i
	}
	tbl := core.NewModeTable(adtspecs.Map(), []core.SymSet{keySet},
		core.TableOptions{Phi: core.NewFixedPhi(64, 0, assign)})
	return tbl, tbl.Set(keySet)
}

// runGossipPass drives one router variant on one long-lived group — the
// app's steady state. The mix is prologue-heavy: half unicasts (two locks
// around one map get and one zero-cost send), a quarter multicasts, and
// a register/unregister churn pair every eighth operation (two locks
// around a single map mutation — the op where mode selection is the
// largest fraction of the section).
func runGossipPass(policy string, threads, opsPerThread int) float64 {
	r := gossip.New(policy, 0, plan.Options{})
	for _, d := range [2]string{"m0", "m1"} {
		r.Register("grp", d, gossip.NewConn(d, 0))
	}
	churn := gossip.NewConn("churn", 0)
	payload := []byte{1}
	return measure(threads, opsPerThread, func(_, i int) {
		switch {
		case i&7 == 0:
			r.Register("grp", "churn", churn)
		case i&7 == 4:
			r.Unregister("grp", "churn")
		case i&1 == 1:
			r.Unicast("grp", "m0", payload)
		default:
			r.Multicast("grp", payload)
		}
	})
}

// runIntruderPass runs the full intruder pipeline over the shared trace
// and returns packets per millisecond.
func runIntruderPass(policy string, workers int, w *intruder.Workload) float64 {
	proc := intruder.NewProcessor(policy, plan.Options{})
	start := time.Now()
	intruder.Run(w, proc, workers)
	ms := float64(time.Since(start).Microseconds()) / 1000
	if ms == 0 {
		ms = 0.001
	}
	return float64(len(w.Packets)) / ms
}

// runBatchCell times the fused same-instance run: three key modes on
// one instance, acquired as one AcquireBatch or as three sequential
// Acquire calls. This shape is what Txn.Lock cannot express (its
// LOCAL_SET check makes a second lock of a held instance a no-op), so
// the comparison runs at the Semantic layer. The "disjoint" workload
// gives every goroutine its own key triple — the pure fast path, which
// bounds the batching overhead against three straight-lined claims; the
// "contended" workload makes every goroutine want the same triple and
// hold it across a yield, so sections overlap and blocked batches park
// one union-mask waiter where the sequential prologue parks one waiter
// per blocking constituent.
func runBatchCell(workload, variant string, threads, totalOps int) HotpathBatchCell {
	tbl, ref := hotpathTable()
	s := core.NewSemantic(tbl)
	ops := totalOps / threads
	if ops < 1 {
		ops = 1
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := (3 * g) % 64 // disjoint below 22 goroutines
			if workload == "contended" {
				base = 0 // every goroutine fights for keys 0,1,2
			}
			// Keep keys inside the 64-bucket φ and acquire in ascending
			// bucket order: past 21 goroutines the triples wrap and
			// overlap, and the sequential baseline deadlocks unless every
			// goroutine claims overlapping keys in one global order. (The
			// batched variant needs no such discipline — its claim is
			// all-or-nothing with a single union waiter mask.)
			k := [3]int{base, (base + 1) % 64, (base + 2) % 64}
			sort.Ints(k[:])
			m1 := ref.Mode1(k[0])
			m2 := ref.Mode1(k[1])
			m3 := ref.Mode1(k[2])
			hold := func() {}
			if workload == "contended" {
				hold = runtime.Gosched // overlap the critical sections
			}
			<-start
			if variant == "batched" {
				for i := 0; i < ops; i++ {
					s.AcquireBatch(m1, m2, m3)
					hold()
					s.Release(m1)
					s.Release(m2)
					s.Release(m3)
				}
			} else {
				for i := 0; i < ops; i++ {
					s.Acquire(m1)
					s.Acquire(m2)
					s.Acquire(m3)
					hold()
					s.Release(m1)
					s.Release(m2)
					s.Release(m3)
				}
			}
		}(g)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)

	st := s.Stats()
	ratio := 0.0
	if st.FastPath+st.Slow > 0 {
		ratio = float64(st.FastPath) / float64(st.FastPath+st.Slow)
	}
	return HotpathBatchCell{
		Workload:      workload,
		Variant:       variant,
		Threads:       threads,
		NsPerPrologue: float64(elapsed.Nanoseconds()) / float64(ops*threads),
		FastPathRatio: ratio,
	}
}

// runWatchdogCell times the contended acquire/release cycle of one
// self-conflicting mode held across a yield (the lockmech all-conflict
// shape, where every acquisition blocks and registers a waiter), with
// the instance either unwatched or registered with a Watchdog.
func runWatchdogCell(watched bool, threads, totalOps int) HotpathWatchdogCell {
	tbl, ref := hotpathTable()
	s := core.NewSemantic(tbl)
	if watched {
		// Watch flips the mechanisms' watched bit, which is what makes
		// getWaiter stamp each parked waiter with time.Now. The huge
		// thresholds keep the sampler itself out of the measurement.
		core.NewWatchdog(core.WatchdogConfig{Threshold: time.Hour, Interval: time.Hour}).Watch(s)
	}
	m := ref.Mode1(0)
	ops := totalOps / threads
	if ops < 1 {
		ops = 1
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < ops; i++ {
				s.Acquire(m)
				runtime.Gosched()
				s.Release(m)
			}
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return HotpathWatchdogCell{
		Watched:    watched,
		Threads:    threads,
		NsPerCycle: float64(time.Since(t0).Nanoseconds()) / float64(ops*threads),
	}
}

// hotpathModeCells runs the mode-construction microbenchmark.
func hotpathModeCells() []HotpathModeCell {
	tbl, ref := hotpathTable()
	keySet := ref.SymSet()
	phi := tbl.Phi()
	binderVariadic := ref.Binder("k")
	binder1 := ref.Binder1("k")

	run := func(path string, f func()) HotpathModeCell {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f()
			}
		})
		return HotpathModeCell{
			Path:        path,
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
	}
	return []HotpathModeCell{
		run("modeforvalues", func() {
			hotpathModeObjSink = core.ModeForValues(keySet, phi, map[string]core.Value{"k": 7})
		}),
		run("binder-variadic", func() { hotpathModeSink = binderVariadic(7) }),
		run("binder1", func() { hotpathModeSink = binder1(7) }),
		run("setref-mode1", func() { hotpathModeSink = ref.Mode1(7) }),
	}
}

// geomean returns the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// HotpathBench runs the full experiment and computes the summary
// criteria (see HotpathReport.Criteria keys in Format).
func HotpathBench(cfg HotpathConfig) *HotpathReport {
	if cfg.OpsPerThread == 0 {
		cfg.OpsPerThread = 20000
	}
	if cfg.TotalOps == 0 {
		cfg.TotalOps = 100000
	}
	if len(cfg.Threads) == 0 {
		cfg.Threads = ThreadCounts
	}
	rep := &HotpathReport{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		OpsPerThread: cfg.OpsPerThread,
		TotalOps:     cfg.TotalOps,
		AppSpeedup:   map[string]map[int]float64{},
		Criteria:     map[string]float64{},
	}

	// ---- applications ----
	icfg := intruder.Config{Attacks: 10, MaxLength: 64, Flows: 4096, Seed: 1}
	if cfg.OpsPerThread < 20000 {
		icfg.Flows = 1024
	}
	trace := intruder.Generate(icfg)

	apps := []struct {
		name string
		warm func(policy string, T int)
		run  func(policy string, T int) float64
	}{
		{
			name: "gossip",
			warm: func(p string, T int) { runGossipPass(p, T, cfg.OpsPerThread/10+1) },
			run:  func(p string, T int) float64 { return runGossipPass(p, T, cfg.OpsPerThread) },
		},
		{
			name: "intruder",
			warm: func(p string, T int) { runIntruderPass(p, T, trace) },
			run:  func(p string, T int) float64 { return runIntruderPass(p, T, trace) },
		},
	}
	for _, app := range apps {
		sp := map[int]float64{}
		for _, T := range cfg.Threads {
			for _, v := range hotpathVariants {
				app.warm(hotpathPolicies[v], T)
			}
			best := map[string]float64{}
			for r := 0; r < hotpathAppReps; r++ {
				for _, v := range hotpathVariants {
					if got := app.run(hotpathPolicies[v], T); got > best[v] {
						best[v] = got
					}
				}
			}
			for _, v := range hotpathVariants {
				rep.App = append(rep.App, HotpathAppCell{App: app.name, Variant: v, Threads: T, OpsPerMs: best[v]})
			}
			if best[hotpathSeq] > 0 {
				sp[T] = best[hotpathFused] / best[hotpathSeq]
			}
		}
		rep.AppSpeedup[app.name] = sp
	}

	// ---- mode-construction microbenchmark ----
	rep.Mode = hotpathModeCells()
	for _, c := range rep.Mode {
		if c.Path == "setref-mode1" {
			rep.Criteria["mode_setref_allocs_per_op"] = float64(c.AllocsPerOp)
		}
	}

	// ---- core batch prologue ----
	// Contended cells only make sense when sections can overlap, so that
	// workload starts at 2 goroutines.
	for _, wl := range []string{"disjoint", "contended"} {
		batchBest := map[string]map[int]HotpathBatchCell{"batched": {}, "sequential": {}}
		var threads []int
		for _, T := range cfg.Threads {
			if wl == "contended" && T < 2 {
				continue
			}
			threads = append(threads, T)
		}
		for _, T := range threads {
			for _, v := range []string{"batched", "sequential"} {
				runBatchCell(wl, v, T, cfg.TotalOps/10) // warm-up
			}
			for r := 0; r < hotpathReps; r++ {
				for _, v := range []string{"batched", "sequential"} {
					c := runBatchCell(wl, v, T, cfg.TotalOps)
					if b, ok := batchBest[v][T]; !ok || c.NsPerPrologue < b.NsPerPrologue {
						batchBest[v][T] = c
					}
				}
			}
			for _, v := range []string{"batched", "sequential"} {
				rep.Batch = append(rep.Batch, batchBest[v][T])
			}
		}
		var batchSp []float64
		for _, T := range threads {
			if b := batchBest["batched"][T].NsPerPrologue; b > 0 {
				batchSp = append(batchSp, batchBest["sequential"][T].NsPerPrologue/b)
			}
		}
		rep.Criteria["batch_"+wl+"_fused_over_sequential"] = geomean(batchSp)
		if wl == "disjoint" {
			rep.Criteria["batched_fastpath_ratio_uncontended"] = batchBest["batched"][threads[0]].FastPathRatio
		}
	}

	// ---- watchdog clock gating ----
	wdBest := map[bool]map[int]float64{false: {}, true: {}}
	wdThreads := []int{2, 8}
	for _, T := range wdThreads {
		for _, w := range []bool{false, true} {
			runWatchdogCell(w, T, cfg.TotalOps/10) // warm-up
		}
		for r := 0; r < hotpathReps; r++ {
			for _, w := range []bool{false, true} {
				c := runWatchdogCell(w, T, cfg.TotalOps)
				if b, ok := wdBest[w][T]; !ok || c.NsPerCycle < b {
					wdBest[w][T] = c.NsPerCycle
				}
			}
		}
		for _, w := range []bool{false, true} {
			rep.Watchdog = append(rep.Watchdog, HotpathWatchdogCell{Watched: w, Threads: T, NsPerCycle: wdBest[w][T]})
		}
	}
	var wdRatios []float64
	for _, T := range wdThreads {
		if w := wdBest[true][T]; w > 0 {
			wdRatios = append(wdRatios, wdBest[false][T]/w)
		}
	}
	rep.Criteria["unwatched_over_watched_ns_ratio"] = geomean(wdRatios)

	// ---- app criteria ----
	var gossipHi, intruderSp []float64
	for T, sp := range rep.AppSpeedup["gossip"] {
		if T >= 8 {
			gossipHi = append(gossipHi, sp)
		}
	}
	for T, sp := range rep.AppSpeedup["intruder"] {
		if T >= 2 {
			intruderSp = append(intruderSp, sp)
		}
	}
	rep.Criteria["gossip_fused_over_sequential_T8plus"] = geomean(gossipHi)
	rep.Criteria["intruder_fused_over_sequential_T2plus"] = geomean(intruderSp)
	return rep
}

// Format renders the report as aligned tables, one per component.
func (r *HotpathReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hotpath — fused prologue vs sequential prologue\n")
	fmt.Fprintf(&b, "GOMAXPROCS=%d, %d app ops/goroutine, %d core cycles per cell\n",
		r.GOMAXPROCS, r.OpsPerThread, r.TotalOps)

	appCells := map[string]map[string]map[int]HotpathAppCell{}
	var threads []int
	seen := map[int]bool{}
	for _, c := range r.App {
		if appCells[c.App] == nil {
			appCells[c.App] = map[string]map[int]HotpathAppCell{hotpathFused: {}, hotpathSeq: {}}
		}
		appCells[c.App][c.Variant][c.Threads] = c
		if !seen[c.Threads] {
			seen[c.Threads] = true
			threads = append(threads, c.Threads)
		}
	}
	sort.Ints(threads)
	for _, app := range []string{"gossip", "intruder"} {
		if appCells[app] == nil {
			continue
		}
		fmt.Fprintf(&b, "\n%s (ops/ms)\n", app)
		fmt.Fprintf(&b, "%-8s%12s%14s%10s\n", "threads", "fused", "sequential", "speedup")
		for _, T := range threads {
			fmt.Fprintf(&b, "%-8d%12.1f%14.1f%10.2f\n",
				T,
				appCells[app][hotpathFused][T].OpsPerMs,
				appCells[app][hotpathSeq][T].OpsPerMs,
				r.AppSpeedup[app][T])
		}
	}

	fmt.Fprintf(&b, "\nmode construction (repeated same-value selection)\n")
	fmt.Fprintf(&b, "%-18s%12s%10s%12s\n", "path", "ns/op", "B/op", "allocs/op")
	for _, c := range r.Mode {
		fmt.Fprintf(&b, "%-18s%12.1f%10d%12d\n", c.Path, c.NsPerOp, c.BytesPerOp, c.AllocsPerOp)
	}

	for _, wl := range []string{"disjoint", "contended"} {
		fmt.Fprintf(&b, "\ncore same-instance fused run, %s keys (ns per 3-mode prologue)\n", wl)
		fmt.Fprintf(&b, "%-8s%12s%14s%10s%12s\n", "threads", "batched", "sequential", "speedup", "fastpath")
		batch := map[string]map[int]HotpathBatchCell{"batched": {}, "sequential": {}}
		for _, c := range r.Batch {
			if c.Workload == wl {
				batch[c.Variant][c.Threads] = c
			}
		}
		var bt []int
		for T := range batch["batched"] {
			bt = append(bt, T)
		}
		sort.Ints(bt)
		for _, T := range bt {
			bc, sc := batch["batched"][T], batch["sequential"][T]
			sp := 0.0
			if bc.NsPerPrologue > 0 {
				sp = sc.NsPerPrologue / bc.NsPerPrologue
			}
			fmt.Fprintf(&b, "%-8d%12.1f%14.1f%10.2f%12.3f\n", T, bc.NsPerPrologue, sc.NsPerPrologue, sp, bc.FastPathRatio)
		}
	}

	fmt.Fprintf(&b, "\nwatchdog clock gating (contended cycle, ns)\n")
	fmt.Fprintf(&b, "%-8s%12s%12s\n", "threads", "unwatched", "watched")
	wd := map[bool]map[int]float64{false: {}, true: {}}
	var wt []int
	seenW := map[int]bool{}
	for _, c := range r.Watchdog {
		wd[c.Watched][c.Threads] = c.NsPerCycle
		if !seenW[c.Threads] {
			seenW[c.Threads] = true
			wt = append(wt, c.Threads)
		}
	}
	sort.Ints(wt)
	for _, T := range wt {
		fmt.Fprintf(&b, "%-8d%12.1f%12.1f\n", T, wd[false][T], wd[true][T])
	}

	fmt.Fprintf(&b, "\ncriteria:\n")
	for _, k := range sortedStringKeys(r.Criteria) {
		fmt.Fprintf(&b, "  %s = %.3f\n", k, r.Criteria[k])
	}
	return b.String()
}

func sortedStringKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
