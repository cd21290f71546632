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
//	benchall -exp hotpath    # fused-prologue vs sequential-prologue
//	                           (real execution; writes BENCH_hotpath.json)
//	benchall -exp chaos      # fault-injection and recovery experiment
//	                           (real execution; writes BENCH_chaos.json)
//	benchall -exp telemetry  # observability-layer overhead + trace audit
//	                           (real execution; writes BENCH_telemetry.json)
//	benchall -exp optimistic # hybrid lock-free reads vs pessimistic prologue
//	                           (real execution; writes BENCH_optimistic.json)
//	benchall -exp resilience # graceful degradation under slow-hold injection
//	                           (real execution; writes BENCH_resilience.json)
//	benchall -exp net        # gossipd over TCP: connection sweep with
//	                           p50/p95/p99 latency and the in-process ratio
//	                           (real execution; writes BENCH_net.json)
//	benchall -exp net -netconns 16 -netdur 100ms   # short CI smoke cell
//	benchall -exp adaptive   # control plane vs static knob profiles
//	                           (real execution; writes BENCH_adaptive.json)
//	benchall -real           # include real-execution measurements
//	benchall -scale 50000    # simulated transactions per thread
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/adtspecs"
	"repro/internal/apps/gossip"
	"repro/internal/apps/intruder"
	"repro/internal/bench"
	"repro/internal/core"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment: fig19|fig21|fig22|fig22-readheavy|fig22-writeheavy|fig23|fig23-5050|fig24|fig25|ablation|hotpath|chaos|telemetry|optimistic|resilience|net|adaptive|stats|all")
	scale := flag.Int("scale", 20000, "simulated transactions per thread")
	real := flag.Bool("real", false, "also run real-execution measurements on this host")
	realOps := flag.Int("realops", 30000, "real-execution operations per thread")
	netConns := flag.String("netconns", "", "for -exp net: comma-separated connection sweep (default 64,256,1024,4096)")
	netDur := flag.Duration("netdur", 0, "for -exp net: per-cell measurement window (default 400ms)")
	flag.Parse()

	cfg := bench.SimConfig{TxnsPerThread: *scale, Seed: 1}
	want := func(id string) bool { return *exp == "all" || *exp == id }
	ran := false

	if want("fig19") {
		printFig19()
		ran = true
	}
	if want("stats") {
		fmt.Println(bench.StatsReport(20000, 4))
		ran = true
	}
	// The hotpath experiment measures real execution (not the
	// simulator), so it only runs when asked for explicitly.
	if *exp == "hotpath" {
		rep := bench.HotpathBench(bench.HotpathConfig{OpsPerThread: *scale, TotalOps: *scale * 5})
		fmt.Println(rep.Format())
		out, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile("BENCH_hotpath.json", append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: writing BENCH_hotpath.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("wrote BENCH_hotpath.json")
		ran = true
	}
	// The telemetry experiment measures real execution with the
	// observability layer attached, so it only runs when asked for
	// explicitly.
	if *exp == "telemetry" {
		rep, err := bench.TelemetryBench(bench.TelemetryConfig{OpsPerThread: *scale})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: telemetry experiment: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep.Format())
		out, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile("BENCH_telemetry.json", append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: writing BENCH_telemetry.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("wrote BENCH_telemetry.json")
		ran = true
	}
	// The optimistic experiment measures real execution of the hybrid
	// lock-free read path, so it only runs when asked for explicitly.
	if *exp == "optimistic" {
		rep := bench.OptimisticBench(bench.OptimisticConfig{OpsPerThread: *scale})
		fmt.Println(rep.Format())
		out, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile("BENCH_optimistic.json", append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: writing BENCH_optimistic.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("wrote BENCH_optimistic.json")
		ran = true
	}
	// The resilience experiment sweeps a time-based slow-hold saboteur
	// over the policied and unpolicied router — real execution only.
	if *exp == "resilience" {
		rep := bench.ResilienceBench(bench.ResilienceConfig{})
		fmt.Println(rep.Format())
		out, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile("BENCH_resilience.json", append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: writing BENCH_resilience.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("wrote BENCH_resilience.json")
		ran = true
	}
	// The net experiment serves the router over real TCP sockets and
	// sweeps client connection counts — real execution only.
	if *exp == "net" {
		ncfg := bench.NetConfig{Duration: *netDur}
		if *netConns != "" {
			for _, f := range strings.Split(*netConns, ",") {
				var n int
				if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err != nil || n <= 0 {
					fmt.Fprintf(os.Stderr, "benchall: bad -netconns entry %q\n", f)
					os.Exit(2)
				}
				ncfg.Conns = append(ncfg.Conns, n)
			}
		}
		rep, err := bench.NetBench(ncfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: net experiment: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep.Format())
		out, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile("BENCH_net.json", append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: writing BENCH_net.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("wrote BENCH_net.json")
		ran = true
	}
	// The adaptive experiment races the control plane against static
	// knob profiles — real execution only.
	if *exp == "adaptive" {
		rep := bench.AdaptiveBench(bench.AdaptiveConfig{OpsPerThread: *scale})
		fmt.Println(rep.Format())
		out, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile("BENCH_adaptive.json", append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: writing BENCH_adaptive.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("wrote BENCH_adaptive.json")
		ran = true
	}
	// The chaos experiment injects real panics and delays into real
	// execution, so it too only runs when asked for explicitly.
	if *exp == "chaos" {
		rep := bench.ChaosBench(bench.ChaosConfig{})
		fmt.Println(rep.Format())
		out, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile("BENCH_chaos.json", append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: writing BENCH_chaos.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("wrote BENCH_chaos.json")
		ran = true
	}
	type figFn struct {
		id string
		fn func(bench.SimConfig) *bench.Figure
	}
	for _, f := range []figFn{
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
	} {
		if !want(f.id) {
			continue
		}
		fmt.Println(f.fn(cfg).Format())
		ran = true
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

	if !ran && !*real {
		fmt.Fprintf(os.Stderr, "benchall: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
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
