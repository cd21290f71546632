package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/gossip"
	"repro/internal/apps/intruder"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/modules/plan"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// ChaosBench is the fault-recovery experiment behind
// `benchall -exp chaos`: it drives the gossip and intruder applications
// through three phases — a fault-free baseline, a burst with panics and
// scheduler delays injected inside atomic sections, and a fault-free
// recovery phase — and verifies that the runtime comes back intact. The
// acceptance criteria are structural (no leaked lock counts, no
// registered waiters, every instance quiescent after the burst) plus a
// throughput criterion: the recovery phase must reach at least 80% of
// the baseline's ops/sec, i.e. absorbed faults leave no lasting damage.
type ChaosConfig struct {
	OpsPerPhase int // gossip ops per phase (split across workers)
	Workers     int
	Flows       int // intruder flows per phase
}

// ChaosPhase is one measured phase of one app's chaos run.
type ChaosPhase struct {
	Phase     string  `json:"phase"` // "baseline", "faulted", "recovery"
	Ops       int     `json:"ops"`
	Faulted   uint64  `json:"faulted_ops"`
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// ChaosCell is one app's full three-phase run.
type ChaosCell struct {
	App           string       `json:"app"`
	Phases        []ChaosPhase `json:"phases"`
	Panics        uint64       `json:"injected_panics"`
	SlowHolds     uint64       `json:"injected_slow_holds"`
	Delays        uint64       `json:"injected_delays"`
	StallReports  int          `json:"stall_reports"` // watchdog reports during the faulted phase
	LeakedLocks   int64        `json:"leaked_locks"`  // outstanding holder counts after drain; must be 0
	QuiesceError  string       `json:"quiesce_error,omitempty"`
	RecoveryRatio float64      `json:"recovery_ratio"` // recovery ops/sec ÷ baseline ops/sec

	// Telemetry cross-check: the observability layer must agree with the
	// chaos harness's own accounting. TelemetryHolds is the outstanding-
	// holds total a telemetry snapshot reports after drain (must equal
	// LeakedLocks, i.e. 0); RecoveredPanics is the section-panic counter
	// delta across the cell (must equal the injector's panic count —
	// every injected panic unwinds through exactly one atomic section);
	// LeakedWaiters is the global registered-waiter delta (must be 0).
	TelemetryHolds  int64  `json:"telemetry_outstanding_holds"`
	RecoveredPanics uint64 `json:"telemetry_recovered_panics"`
	LeakedWaiters   int64  `json:"leaked_waiters"`

	// Resilience accounting, populated only by the policied cell:
	// operations the policy dropped instead of wedging on (stalled past
	// the patience, or refused by the breaker), and the breaker's own
	// counts. The recovery criteria apply to the policied cell unchanged
	// — absorbing faults by dropping work must still leave zero leaked
	// locks and a recovered throughput.
	Dropped        uint64 `json:"dropped_ops,omitempty"`
	BreakerTrips   uint64 `json:"breaker_trips,omitempty"`
	BreakerRejects uint64 `json:"breaker_rejects,omitempty"`
}

// ChaosReport is the full result of the chaos experiment, the content
// of BENCH_chaos.json.
type ChaosReport struct {
	GOMAXPROCS int                `json:"gomaxprocs"`
	Cells      []ChaosCell        `json:"cells"`
	Criteria   map[string]float64 `json:"criteria"`
}

// chaosReport is BENCH_chaos.json's schema. Strict is the chaos pass
// condition: nothing leaked, every instance quiescent, the telemetry
// layer agreeing with the harness's own accounting, and the recovery
// phase back to 80 % of the baseline.
var chaosReport = Report{
	ID: "chaos", File: "BENCH_chaos.json",
	Run:    func(RunOptions) (Formatter, error) { return ChaosBench(ChaosConfig{}), nil },
	Fields: []string{"gomaxprocs", "cells", "criteria"},
	Criteria: []string{"recovery_ratio_min", "leaked_locks_total", "quiesce_failures",
		"telemetry_holds_mismatch", "panic_recovery_mismatch", "leaked_waiters_total"},
	Strict: append(zero("leaked_locks_total", "leaked_waiters_total", "quiesce_failures",
		"telemetry_holds_mismatch", "panic_recovery_mismatch"),
		Bound{"recovery_ratio_min", 0.8, inf}),
}

// chaosInjector is the shared fault schedule: frequent enough that a
// phase of a few thousand ops sees dozens of faults, slow holds long
// enough for the watchdog (threshold below) to observe them.
func chaosInjector() *chaos.Injector {
	return chaos.NewInjector(chaos.Config{
		PanicEvery:    17,
		SlowHoldEvery: 97,
		SlowHold:      3 * time.Millisecond,
		DelayEvery:    5,
		MaxDelay:      100 * time.Microsecond,
	})
}

const chaosWatchdogThreshold = time.Millisecond

// runChaosPhases runs the three phases for one app. run executes one
// workload pass with faults shielded and returns (ops attempted, ops
// absorbed as faults); sems lists the app's lock instances for the
// watchdog and the quiescence check.
func runChaosPhases(app string, inj *chaos.Injector, sems []*core.Semantic, run func() (int, uint64)) ChaosCell {
	cell := ChaosCell{App: app}
	panics0 := core.SectionPanicsRecovered()
	waiters0 := core.WaitersOutstanding()

	var stalls atomic.Int64
	d := core.NewWatchdog(core.WatchdogConfig{
		Threshold: chaosWatchdogThreshold,
		Interval:  chaosWatchdogThreshold / 2,
		OnStall:   func(core.StallReport) { stalls.Add(1) },
	})
	for _, s := range sems {
		d.Watch(s)
	}

	for _, phase := range []string{"baseline", "faulted", "recovery"} {
		if phase == "faulted" {
			inj.Arm()
			d.Start()
		}
		t0 := time.Now()
		ops, faulted := run()
		elapsed := time.Since(t0)
		if phase == "faulted" {
			inj.Disarm()
			d.Stop()
		}
		cell.Phases = append(cell.Phases, ChaosPhase{
			Phase:     phase,
			Ops:       ops,
			Faulted:   faulted,
			Seconds:   elapsed.Seconds(),
			OpsPerSec: float64(ops) / elapsed.Seconds(),
		})
	}

	cell.Panics, cell.SlowHolds, cell.Delays = inj.Counts()
	cell.StallReports = int(stalls.Load())
	for _, s := range sems {
		cell.LeakedLocks += s.OutstandingHolds()
	}
	if err := chaos.CheckRecovered(sems...); err != nil {
		cell.QuiesceError = err.Error()
	}

	// Telemetry cross-check: the same instances seen through a telemetry
	// registry snapshot must report the same outstanding holds the direct
	// walk above found, the section-panic counter delta must equal the
	// injector's panic count, and no waiter registration may leak.
	reg := telemetry.NewRegistry()
	reg.Register(app, "chaos", sems...)
	for _, g := range reg.Snapshot().Groups {
		cell.TelemetryHolds += g.OutstandingHolds
	}
	cell.RecoveredPanics = core.SectionPanicsRecovered() - panics0
	cell.LeakedWaiters = core.WaitersOutstanding() - waiters0
	if base := cell.Phases[0].OpsPerSec; base > 0 {
		cell.RecoveryRatio = cell.Phases[2].OpsPerSec / base
	}
	return cell
}

// chaosGossipCell runs the gossip router through the three phases.
func chaosGossipCell(cfg ChaosConfig) ChaosCell {
	r := gossip.NewOurs(0, plan.Options{})
	inj := chaosInjector()
	r.FaultHook = inj.Hook
	payload := []byte("chaos-payload")
	for g := 0; g < 4; g++ {
		for m := 0; m < 8; m++ {
			name := fmt.Sprintf("m%d", m)
			r.Register(fmt.Sprintf("g%d", g), name, gossip.NewConn(name, 0))
		}
	}

	opsPer := cfg.OpsPerPhase / cfg.Workers
	run := func() (int, uint64) {
		var faulted atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < opsPer; i++ {
					g := fmt.Sprintf("g%d", (w+i)%4)
					m := fmt.Sprintf("m%d", i%8)
					op := (w*31 + i*7) % 100
					hit := chaos.Shield(func() {
						switch {
						case op < 10:
							r.Register(g, m, gossip.NewConn(m, 0))
						case op < 20:
							r.Unregister(g, m)
						case op < 60:
							r.Unicast(g, m, payload)
						default:
							r.Multicast(g, payload)
						}
					})
					if hit {
						faulted.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		return opsPer * cfg.Workers, faulted.Load()
	}
	return runChaosPhases("gossip", inj, r.Sems(), run)
}

// chaosGossipResilientCell runs the policied router through the same
// three phases. Unlike the plain cell, operations the policy gives up
// on — stalled past the patience, or breaker-refused — are dropped
// (counted) instead of blocking until the fault clears; the structural
// recovery criteria apply unchanged, and the breaker's counters land in
// the cell for the -chaos-strict artifact.
func chaosGossipResilientCell(cfg ChaosConfig) ChaosCell {
	o := gossip.NewOurs(0, plan.Options{})
	inj := chaosInjector()
	o.FaultHook = inj.Hook
	pol := resilience.New("gossip-chaos", resilience.Config{
		Patience: 500 * time.Microsecond,
		Breaker: &resilience.BreakerConfig{
			Window:        100 * time.Millisecond,
			Buckets:       4,
			TripStallRate: 2000,
			Cooldown:      time.Millisecond,
			Probes:        2,
		},
	})
	r := gossip.NewResilient(o, pol)
	mgr := resilience.NewManager(nil)
	mgr.Add(pol)
	mgr.Start()
	payload := []byte("chaos-payload")
	for g := 0; g < 4; g++ {
		for m := 0; m < 8; m++ {
			name := fmt.Sprintf("m%d", m)
			o.Register(fmt.Sprintf("g%d", g), name, gossip.NewConn(name, 0))
		}
	}

	var dropped atomic.Uint64
	opsPer := cfg.OpsPerPhase / cfg.Workers
	run := func() (int, uint64) {
		var faulted atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < opsPer; i++ {
					g := fmt.Sprintf("g%d", (w+i)%4)
					m := fmt.Sprintf("m%d", i%8)
					op := (w*31 + i*7) % 100
					var err error
					hit := chaos.Shield(func() {
						switch {
						case op < 10:
							err = r.RegisterErr(g, m, gossip.NewConn(m, 0))
						case op < 20:
							err = r.UnregisterErr(g, m)
						case op < 50:
							err = r.UnicastErr(g, m, payload)
						case op < 60:
							_, err = r.LookupErrV(g, m)
						default:
							err = r.MulticastErr(g, payload)
						}
					})
					if hit {
						faulted.Add(1)
					}
					if resilienceDropped(err) {
						dropped.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		return opsPer * cfg.Workers, faulted.Load()
	}
	cell := runChaosPhases("gossip-resilient", inj, o.Sems(), run)
	mgr.Stop()
	cell.Dropped = dropped.Load()
	st := pol.Breaker().Stats()
	cell.BreakerTrips = st.Counters["tripped"]
	cell.BreakerRejects = st.Counters["rejected"]
	return cell
}

// chaosIntruderCell runs the reassembly pipeline through the three
// phases; each phase processes a fresh capture of cfg.Flows flows.
func chaosIntruderCell(cfg ChaosConfig) ChaosCell {
	proc := intruder.NewOurs(plan.Options{})
	inj := chaosInjector()
	proc.FaultHook = inj.Hook

	seed := int64(0)
	run := func() (int, uint64) {
		seed++
		w := intruder.Generate(intruder.Config{Attacks: 10, MaxLength: 64, Flows: cfg.Flows, Seed: seed})
		// Injected panics drop packets, leaving their flows incomplete in
		// the reassembly map across phases — so each phase must use a
		// disjoint FlowID range or a stale half-built flow would collide
		// with a fresh flow of the same ID (and different fragment count).
		for i := range w.Packets {
			w.Packets[i].FlowID += int(seed) * cfg.Flows
		}
		var faulted atomic.Uint64
		var wg sync.WaitGroup
		for wk := 0; wk < cfg.Workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				for i := wk; i < len(w.Packets); i += cfg.Workers {
					p := w.Packets[i]
					if chaos.Shield(func() { proc.Process(p) }) {
						faulted.Add(1)
					}
					chaos.Shield(func() { proc.Pop() })
				}
			}(wk)
		}
		wg.Wait()
		return len(w.Packets), faulted.Load()
	}
	return runChaosPhases("intruder", inj, proc.Sems(), run)
}

// ChaosBench runs the chaos experiment for both applications and
// computes the summary criteria.
func ChaosBench(cfg ChaosConfig) *ChaosReport {
	if cfg.OpsPerPhase == 0 {
		cfg.OpsPerPhase = 6000
	}
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	if cfg.Flows == 0 {
		cfg.Flows = 2000
	}
	rep := &ChaosReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Criteria:   map[string]float64{},
	}
	rep.Cells = append(rep.Cells, chaosGossipCell(cfg), chaosGossipResilientCell(cfg), chaosIntruderCell(cfg))

	minRatio := 0.0
	var leaked, holdsMismatch, leakedWaiters int64
	var quiesceFailures, panicMismatch float64
	for i, c := range rep.Cells {
		if i == 0 || c.RecoveryRatio < minRatio {
			minRatio = c.RecoveryRatio
		}
		leaked += c.LeakedLocks
		if c.QuiesceError != "" {
			quiesceFailures++
		}
		if d := c.TelemetryHolds - c.LeakedLocks; d >= 0 {
			holdsMismatch += d
		} else {
			holdsMismatch -= d
		}
		if c.RecoveredPanics != c.Panics {
			panicMismatch++
		}
		leakedWaiters += c.LeakedWaiters
	}
	// Pass condition: recovery_ratio_min ≥ 0.8, everything else exactly 0.
	rep.Criteria["recovery_ratio_min"] = minRatio
	rep.Criteria["leaked_locks_total"] = float64(leaked)
	rep.Criteria["quiesce_failures"] = quiesceFailures
	rep.Criteria["telemetry_holds_mismatch"] = float64(holdsMismatch)
	rep.Criteria["panic_recovery_mismatch"] = panicMismatch
	rep.Criteria["leaked_waiters_total"] = float64(leakedWaiters)
	return rep
}

// Format renders the report as one aligned table per app.
func (r *ChaosReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos — fault injection and recovery, GOMAXPROCS=%d\n", r.GOMAXPROCS)
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "\n%s  (panics=%d slow-holds=%d delays=%d stall-reports=%d leaked-locks=%d)\n",
			c.App, c.Panics, c.SlowHolds, c.Delays, c.StallReports, c.LeakedLocks)
		fmt.Fprintf(&b, "  telemetry: outstanding-holds=%d recovered-panics=%d leaked-waiters=%d\n",
			c.TelemetryHolds, c.RecoveredPanics, c.LeakedWaiters)
		if c.Dropped+c.BreakerTrips > 0 {
			fmt.Fprintf(&b, "  resilience: dropped=%d breaker-trips=%d breaker-rejects=%d\n",
				c.Dropped, c.BreakerTrips, c.BreakerRejects)
		}
		if c.QuiesceError != "" {
			fmt.Fprintf(&b, "  QUIESCE FAILED: %s\n", c.QuiesceError)
		}
		fmt.Fprintf(&b, "%-10s%10s%14s%14s%14s\n", "phase", "ops", "faulted", "seconds", "ops/sec")
		for _, p := range c.Phases {
			fmt.Fprintf(&b, "%-10s%10d%14d%14.3f%14.0f\n", p.Phase, p.Ops, p.Faulted, p.Seconds, p.OpsPerSec)
		}
		fmt.Fprintf(&b, "  recovery ratio = %.3f\n", c.RecoveryRatio)
	}
	return b.String() + formatCriteria(r.Criteria)
}
