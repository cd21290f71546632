// Command benchall regenerates the paper's evaluation (§6): every
// figure's series, printed as aligned tables. By default it reproduces
// the scaling figures on the virtual-time simulator (the 32-core
// substitute, DESIGN.md substitution 3); -real additionally measures
// real execution on this host.
//
// Usage:
//
//	benchall                 # all figures, simulated
//	benchall -exp fig21      # one experiment
//	benchall -exp fig19      # the Fig 19 commutativity function
//	benchall -exp ablation   # design-choice ablations A1–A5
//	benchall -exp chaos      # fault-injection and recovery experiment
//	benchall -exp resilience # graceful degradation under slow-hold injection
//	benchall -exp net        # gossipd over TCP: the full connection sweep
//	                           with p50/p95/p99 latency and the in-process
//	                           ratio (gossipload runs narrower sweeps)
//	benchall -real           # include real-execution measurements
//	benchall -scale 50000    # simulated transactions per thread
//
// chaos, resilience and net (bench.Reports) are real execution: each
// runs only when named, and writes BENCH_<id>.json in the current
// directory for benchcheck to validate. An unknown -exp exits 2 — that
// includes the retired experiments whose JSON stays as history
// (lockmech, hotpath, optimistic, telemetry, adaptive).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/adtspecs"
	"repro/internal/apps/gossip"
	"repro/internal/apps/intruder"
	"repro/internal/bench"
	"repro/internal/core"
)

// figures are the simulated experiments, in the order -exp all prints
// them.
var figures = []struct {
	id string
	fn func(bench.SimConfig) *bench.Figure
}{
	{"fig21", bench.Fig21Sim},
	{"fig22", bench.Fig22Sim},
	{"fig22-readheavy", func(c bench.SimConfig) *bench.Figure {
		return bench.Fig22SimMix(c, bench.GraphMix{FindSucc: 45, FindPred: 45, Insert: 8, Remove: 2}, "fig22-readheavy")
	}},
	{"fig22-writeheavy", func(c bench.SimConfig) *bench.Figure {
		return bench.Fig22SimMix(c, bench.GraphMix{FindSucc: 25, FindPred: 25, Insert: 30, Remove: 20}, "fig22-writeheavy")
	}},
	{"fig23", bench.Fig23Sim},
	{"fig23-5050", func(c bench.SimConfig) *bench.Figure {
		return bench.Fig23SimMix(c, 50, "fig23-5050")
	}},
	{"fig24", bench.Fig24Sim},
	{"fig25", bench.Fig25Sim},
	{"ablation", bench.AblationSim},
}

// expIDs is every value -exp accepts; the flag's help string and the
// unknown-id message are both made from it.
func expIDs() []string {
	ids := []string{"fig19"}
	for _, f := range figures {
		ids = append(ids, f.id)
	}
	for _, r := range bench.Reports {
		ids = append(ids, r.ID)
	}
	return append(ids, "stats", "all")
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchall: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	ids := expIDs()
	exp := flag.String("exp", "all", "experiment: "+strings.Join(ids, "|"))
	scale := flag.Int("scale", 20000, "simulated transactions per thread")
	real := flag.Bool("real", false, "also run real-execution measurements on this host")
	realOps := flag.Int("realops", 30000, "real-execution operations per thread")
	flag.Parse()

	if !slices.Contains(ids, *exp) {
		fatalf(2, "unknown experiment %q (valid: %s)", *exp, strings.Join(ids, ", "))
	}
	want := func(id string) bool { return *exp == "all" || *exp == id }

	if want("fig19") {
		printFig19()
	}
	if want("stats") {
		fmt.Println(bench.StatsReport(20000, 4))
	}
	// The reports measure real execution (not the simulator), so one
	// runs only when asked for by name, never under "all".
	for _, r := range bench.Reports {
		if r.ID == *exp {
			runReport(r)
		}
	}
	cfg := bench.SimConfig{TxnsPerThread: *scale, Seed: 1}
	for _, f := range figures {
		if want(f.id) {
			fmt.Println(f.fn(cfg).Format())
		}
	}

	if *real {
		rcfg := bench.RealConfig{OpsPerThread: *realOps, Threads: []int{1, 2, 4, 8}}
		if want("fig21") {
			fmt.Println(bench.Fig21Real(rcfg).Format())
		}
		if want("fig22") {
			fmt.Println(bench.Fig22Real(rcfg).Format())
		}
		if want("fig23") {
			fmt.Println(bench.Fig23Real(rcfg).Format())
		}
		if want("fig24") {
			wcfg := intruder.PaperConfig()
			fmt.Println(bench.Fig24Real(rcfg, wcfg).Format())
		}
		if want("fig25") {
			fmt.Println(bench.Fig25Real(rcfg, gossip.PaperMPerf(1)).Format())
		}
	}
}

// runReport runs one bench.Reports entry, prints its tables and writes
// its artifact into the current directory.
func runReport(r *bench.Report) {
	rep, err := r.Run()
	if err != nil {
		fatalf(1, "%s experiment: %v", r.ID, err)
	}
	fmt.Println(rep.Format())
	if err := bench.WriteReport(r.File, rep); err != nil {
		fatalf(1, "writing %s: %v", r.File, err)
	}
	fmt.Println("wrote", r.File)
}

// printFig19 reproduces the commutativity function table of Fig 19.
func printFig19() {
	spec := adtspecs.Set()
	phi := core.NewFixedPhi(2, 1, map[core.Value]int{5: 0})
	sets := []core.SymSet{
		core.SymSetOf(core.SymOpOf("add", core.Star())),
		core.SymSetOf(core.SymOpOf("add", core.ConstArg(5))),
		core.SymSetOf(core.SymOpOf("add", core.VarArg("i")), core.SymOpOf("remove", core.VarArg("j"))),
	}
	tbl := core.NewModeTable(spec, sets, core.TableOptions{Phi: phi, DisableMerging: true})
	modes := tbl.Modes()
	fmt.Println("Fig19 — commutativity function F_c for the Set ADT")
	fmt.Println("(symbolic sets {add(*)}, {add(5)}, {add(i),remove(j)}; φ onto {α1,α2}, φ(5)=α1)")
	width := 0
	for _, m := range modes {
		if len(m.Key()) > width {
			width = len(m.Key())
		}
	}
	fmt.Printf("%-*s", width+2, "")
	for _, m := range modes {
		fmt.Printf("%*s", width+2, m.Key())
	}
	fmt.Println()
	for i, m := range modes {
		fmt.Printf("%-*s", width+2, m.Key())
		for j := range modes {
			fmt.Printf("%*s", width+2, fmt.Sprint(tbl.Commute(core.ModeID(i), core.ModeID(j))))
		}
		fmt.Println()
	}
	fmt.Println(strings.Repeat("-", 20))
	fmt.Println()
}
