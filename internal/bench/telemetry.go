package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/adtspecs"
	"repro/internal/apps/gossip"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/modules/plan"
	"repro/internal/papersec"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// TelemetryBench is the observability-cost experiment behind
// `benchall -exp telemetry`, the content of BENCH_telemetry.json. It
// answers the two questions the telemetry layer must survive:
//
//	overhead — the gossip hot path ("ours-fused", sendCost 0, the
//	           prologue-dominated mix of the hotpath experiment) with
//	           telemetry fully enabled (wait-time sampling on, a
//	           registry over the router's instances, a background
//	           reader snapshotting every millisecond) against the same
//	           pass with telemetry idle. The criteria demand the
//	           enabled variant keeps ≥98% of baseline throughput.
//	trace    — the per-transaction acquisition trace on the golden
//	           corpus (the synthesized Fig 7 section): every traced
//	           execution's schedule must realize the OS2PL order the
//	           static verifier certified (telemetry.ScheduleWidths /
//	           CheckSchedule), and on a checked transaction the trace
//	           must equal the checked acquisition log event for event.
//
// Passes follow the lockmech conventions: variants alternate pass by
// pass, a warm-up pass absorbs first-touch noise, best-of-N is kept.
type TelemetryConfig struct {
	OpsPerThread int   // gossip operations per goroutine per pass
	TraceIters   int   // traced golden-corpus executions
	Threads      []int // goroutine counts; defaults to ThreadCounts
}

// TelemetryAppCell is one (variant, threads) gossip throughput cell.
type TelemetryAppCell struct {
	Variant  string  `json:"variant"` // "off" or "on"
	Threads  int     `json:"threads"`
	OpsPerMs float64 `json:"ops_per_ms"`
}

// TelemetrySnapshotCell is the snapshot-cost microbenchmark: one
// Registry.Snapshot over a live gossip router's instances.
type TelemetrySnapshotCell struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// TelemetryReport is the full experiment result.
type TelemetryReport struct {
	GOMAXPROCS   int                   `json:"gomaxprocs"`
	OpsPerThread int                   `json:"app_ops_per_thread"`
	App          []TelemetryAppCell    `json:"app_cells"`
	Overhead     map[int]float64       `json:"on_over_off_by_threads"`
	Snapshot     TelemetrySnapshotCell `json:"snapshot_cell"`
	// Trace dump: the predicted schedule of the golden section (max
	// same-rank acquisitions per class rank) and one recorded trace that
	// realized it, for eyeballing alongside the mismatch count.
	TraceSections   int                `json:"trace_sections_checked"`
	TraceMismatches int                `json:"trace_order_mismatches"`
	PredictedWidths map[int]int        `json:"predicted_max_at_rank"`
	TraceSample     []core.Acquisition `json:"trace_sample"`
	Criteria        map[string]float64 `json:"criteria"`
}

const telemetryReps = 5

// runTelemetryGossipPass is the hotpath gossip mix on the fused router,
// with the telemetry consumer either idle or fully attached: wait-time
// sampling on, the router's instances registered, and a background
// reader snapshotting every millisecond for the whole pass — the
// worst realistic case, a scraper polling far faster than production.
func runTelemetryGossipPass(on bool, threads, opsPerThread int) float64 {
	r := gossip.New("ours-fused", 0, plan.Options{})
	for _, d := range [2]string{"m0", "m1"} {
		r.Register("grp", d, gossip.NewConn(d, 0))
	}
	churn := gossip.NewConn("churn", 0)
	payload := []byte{1}

	var stop chan struct{}
	if on {
		core.SetWaitTiming(true)
		defer core.SetWaitTiming(false)
		reg := telemetry.NewRegistry()
		// Static registration of the instances alive after setup (the
		// groups lock and the one member map): Sems' walk over the group
		// table is unsynchronized, so the registry copies the list once
		// here, during quiescence, rather than re-walking it per snapshot
		// while the churn mix runs.
		reg.Register("gossip", "Map", r.(*gossip.Ours).Sems()...)
		stop = make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					_ = reg.Snapshot()
				}
			}
		}()
		defer func() { close(stop); <-done }()
	}

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

// telemetryTraceCheck runs the golden corpus — the synthesized Fig 7
// section, the same program the checked-transaction crosscheck test
// uses — on traced unchecked transactions and counts schedule
// mismatches against the verifier's prediction. It also runs one
// checked transaction and verifies the trace equals the checked log.
func telemetryTraceCheck(iters int) (checked, mismatches int, widths map[int]int, sample []core.Acquisition, err error) {
	seeder := &ir.Atomic{
		Name: "seed",
		Vars: []ir.Param{
			{Name: "m", Type: "Map", IsADT: true, NonNull: true},
			{Name: "s", Type: "Set", IsADT: true, NonNull: true},
			{Name: "k", Type: "int"},
		},
		Body: ir.Block{
			&ir.Call{Recv: "m", Method: "put", Args: []ir.Expr{ir.VarRef{Name: "k"}, ir.VarRef{Name: "s"}}},
		},
	}
	res, serr := synth.Synthesize(
		&synth.Program{Sections: []*ir.Atomic{papersec.Fig7(), seeder}, Specs: adtspecs.All()},
		synth.DefaultOptions(),
	)
	if serr != nil {
		return 0, 0, nil, nil, fmt.Errorf("synthesize golden corpus: %w", serr)
	}
	widths = telemetry.ScheduleWidths(res, 0)

	e := interp.NewExecutor(res, false)
	e.EvalOpaque = func(text string, env map[string]core.Value) core.Value {
		return env["s1"] != nil && env["s2"] != nil
	}
	m := e.NewInstance("Map", "Map")
	q := e.NewInstance("Queue", "Queue")
	const keys = 4
	for k := 0; k < keys; k++ {
		env := map[string]core.Value{"m": m, "s": e.NewInstance("Set", "Set"), "k": k}
		if err := e.Run(1, env); err != nil {
			return 0, 0, nil, nil, fmt.Errorf("seed: %w", err)
		}
	}

	tx := core.NewTxn()
	// Each RunWithTxn releases via the section's own epilogue; the defer
	// covers an error return between iterations.
	defer tx.UnlockAll()
	for i := 0; i < iters; i++ {
		tx.Reset()
		tx.StartTrace(64)
		env := map[string]core.Value{
			"m": m, "q": q, "s1": nil, "s2": nil,
			"key1": i % keys, "key2": (i * 3) % keys,
		}
		if err := e.RunWithTxn(0, env, tx, nil); err != nil {
			return checked, mismatches, widths, sample, err
		}
		ev := tx.TraceEvents()
		checked++
		if cerr := telemetry.CheckSchedule(ev, widths); cerr != nil {
			mismatches++
		} else if sample == nil && len(ev) > 0 {
			sample = ev
		}
	}

	// Checked-transaction cross-check: trace == checked log.
	ctx := core.NewCheckedTxn()
	defer ctx.UnlockAll()
	ctx.StartTrace(64)
	env := map[string]core.Value{
		"m": m, "q": q, "s1": nil, "s2": nil, "key1": 0, "key2": 1,
	}
	if err := e.RunWithTxn(0, env, ctx, nil); err != nil {
		return checked, mismatches, widths, sample, err
	}
	log, ev := ctx.Acquisitions(), ctx.TraceEvents()
	checked++
	if len(log) != len(ev) {
		mismatches++
	} else {
		for i := range log {
			if log[i] != ev[i] {
				mismatches++
				break
			}
		}
	}
	return checked, mismatches, widths, sample, nil
}

// TelemetryBench runs the full experiment.
func TelemetryBench(cfg TelemetryConfig) (*TelemetryReport, error) {
	if cfg.OpsPerThread == 0 {
		cfg.OpsPerThread = 20000
	}
	if cfg.TraceIters == 0 {
		cfg.TraceIters = 200
	}
	if len(cfg.Threads) == 0 {
		cfg.Threads = ThreadCounts
	}
	rep := &TelemetryReport{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		OpsPerThread: cfg.OpsPerThread,
		Overhead:     map[int]float64{},
		Criteria:     map[string]float64{},
	}

	variants := []bool{false, true}
	for _, T := range cfg.Threads {
		for _, on := range variants {
			runTelemetryGossipPass(on, T, cfg.OpsPerThread/10+1) // warm-up
		}
		best := map[bool]float64{}
		for r := 0; r < telemetryReps; r++ {
			for _, on := range variants {
				if got := runTelemetryGossipPass(on, T, cfg.OpsPerThread); got > best[on] {
					best[on] = got
				}
			}
		}
		for _, on := range variants {
			v := "off"
			if on {
				v = "on"
			}
			rep.App = append(rep.App, TelemetryAppCell{Variant: v, Threads: T, OpsPerMs: best[on]})
		}
		if best[false] > 0 {
			rep.Overhead[T] = best[true] / best[false]
		}
	}
	var ratios []float64
	for _, r := range rep.Overhead {
		ratios = append(ratios, r)
	}
	g := geomean(ratios)
	rep.Criteria["telemetry_on_over_off_throughput_geomean"] = g
	rep.Criteria["telemetry_overhead_pct"] = (1 - g) * 100

	// Snapshot-cost microbenchmark over a live router's instances.
	r := gossip.New("ours-fused", 0, plan.Options{})
	for _, d := range [2]string{"m0", "m1"} {
		r.Register("grp", d, gossip.NewConn(d, 0))
	}
	reg := telemetry.NewRegistry()
	reg.Register("gossip", "Map", r.(*gossip.Ours).Sems()...)
	var snapSink telemetry.Snapshot
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snapSink = reg.Snapshot()
		}
	})
	_ = snapSink
	rep.Snapshot = TelemetrySnapshotCell{
		NsPerOp:     float64(br.NsPerOp()),
		AllocsPerOp: br.AllocsPerOp(),
	}

	checked, mismatches, widths, sample, err := telemetryTraceCheck(cfg.TraceIters)
	if err != nil {
		return nil, err
	}
	rep.TraceSections = checked
	rep.TraceMismatches = mismatches
	rep.PredictedWidths = widths
	rep.TraceSample = sample
	rep.Criteria["trace_sections_checked"] = float64(checked)
	rep.Criteria["trace_order_mismatches"] = float64(mismatches)
	return rep, nil
}

// Format renders the report as aligned tables.
func (r *TelemetryReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Telemetry — observability cost on the gossip hot path\n")
	fmt.Fprintf(&b, "GOMAXPROCS=%d, %d ops/goroutine ('on' = wait timing + registry + 1ms scraper)\n",
		r.GOMAXPROCS, r.OpsPerThread)

	cells := map[string]map[int]float64{"off": {}, "on": {}}
	var threads []int
	seen := map[int]bool{}
	for _, c := range r.App {
		cells[c.Variant][c.Threads] = c.OpsPerMs
		if !seen[c.Threads] {
			seen[c.Threads] = true
			threads = append(threads, c.Threads)
		}
	}
	sort.Ints(threads)
	fmt.Fprintf(&b, "\ngossip ours-fused (ops/ms)\n")
	fmt.Fprintf(&b, "%-8s%12s%12s%10s\n", "threads", "off", "on", "on/off")
	for _, T := range threads {
		fmt.Fprintf(&b, "%-8d%12.1f%12.1f%10.3f\n", T, cells["off"][T], cells["on"][T], r.Overhead[T])
	}

	fmt.Fprintf(&b, "\nsnapshot cost: %.0f ns/op, %d allocs/op\n", r.Snapshot.NsPerOp, r.Snapshot.AllocsPerOp)
	fmt.Fprintf(&b, "\ntrace vs verifier (golden corpus): %d schedules checked, %d mismatches\n",
		r.TraceSections, r.TraceMismatches)
	fmt.Fprintf(&b, "predicted max acquisitions per rank: %v\n", r.PredictedWidths)
	fmt.Fprintf(&b, "sample schedule:")
	for _, a := range r.TraceSample {
		fmt.Fprintf(&b, " (rank=%d,id=%d,mode=%d)", a.Rank, a.ID, a.Mode)
	}
	fmt.Fprintf(&b, "\n\ncriteria:\n")
	for _, k := range sortedStringKeys(r.Criteria) {
		fmt.Fprintf(&b, "  %s = %.3f\n", k, r.Criteria[k])
	}
	return b.String()
}
