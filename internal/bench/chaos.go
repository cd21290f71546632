package bench

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
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
// through three phases — a burst with panics and scheduler delays
// injected inside atomic sections, a fault-free recovery phase on the
// same instance, and a fault-free baseline on an identical twin that
// never sees a fault — and verifies that the runtime comes back intact.
// The acceptance criteria are structural (no leaked lock counts, no
// registered waiters, every instance quiescent after the burst) plus a
// throughput criterion: the recovery phase must reach at least 80% of
// the baseline's ops/sec, i.e. absorbed faults leave no lasting damage.
type ChaosConfig struct {
	OpsPerPhase int // gossip ops per round of a phase (split across workers)
	Workers     int
	Flows       int // intruder flows per round of a phase
}

// ChaosPhase is one measured phase of one app's chaos run: the faulted
// phase's one round, or the baseline or recovery round of the median
// pair.
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
	StallReports  int          `json:"stall_reports"` // stall-scan reports during the faulted phase
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
	Run:    func() (Formatter, error) { return ChaosBench(ChaosConfig{}) },
	Fields: []string{"gomaxprocs", "cells", "criteria"},
	Criteria: []string{"recovery_ratio_min", "leaked_locks_total", "quiesce_failures",
		"telemetry_holds_mismatch", "panic_recovery_mismatch", "leaked_waiters_total"},
	Strict: append(zero("leaked_locks_total", "leaked_waiters_total", "quiesce_failures",
		"telemetry_holds_mismatch", "panic_recovery_mismatch"),
		Bound{"recovery_ratio_min", 0.8, inf}),
}

// chaosInjector is the shared fault schedule: frequent enough that a
// phase of a few thousand ops sees dozens of faults, slow holds long
// enough for the stall sampler (threshold below) to observe them.
func chaosInjector() *chaos.Injector {
	return chaos.NewInjector(chaos.Config{
		PanicEvery:    17,
		SlowHoldEvery: 97,
		SlowHold:      3 * time.Millisecond,
		DelayEvery:    5,
		MaxDelay:      100 * time.Microsecond,
	})
}

const chaosStallThreshold = time.Millisecond

// chaosRounds is how many pairs of baseline and recovery rounds a cell
// runs; the cell reports the pair whose recovery ratio is the median.
const chaosRounds = 7

// chaosApp is one instance of a cell's application: its lock instances
// and one pass of its workload with faults shielded, returning (ops
// attempted, ops absorbed as faults).
type chaosApp struct {
	sems []*core.Semantic
	run  func() (int, uint64)
}

// chaosRound times one pass of run after a full collection: a round
// lasts a few milliseconds, so a GC cycle landing in it would move its
// ops/sec by about 2×.
func chaosRound(phase string, run func() (int, uint64)) ChaosPhase {
	runtime.GC()
	t0 := time.Now()
	ops, faulted := run()
	sec := time.Since(t0).Seconds()
	return ChaosPhase{Phase: phase, Ops: ops, Faulted: faulted, Seconds: sec, OpsPerSec: float64(ops) / sec}
}

// runChaosPhases runs one app's cell: the faulted phase on subject with
// inj armed, then the recovery phase on subject and the baseline phase
// on twin, an identical instance whose own injector is never armed.
// Each baseline round is paired with an adjacent recovery round, so a
// pair sees the host at one speed: a shared host's speed can drift by
// 2× within tens of milliseconds, and a baseline taken before the
// faults' second or so would compare two speeds of the host, not a
// recovered instance with a healthy one. The drain audit and the
// telemetry cross-check cover both instances.
func runChaosPhases(app string, inj *chaos.Injector, subject, twin chaosApp) ChaosCell {
	cell := ChaosCell{App: app}
	panics0 := core.SectionPanicsRecovered()
	waiters0 := core.WaitersOutstanding()

	// The stall sampler scans the subject every half threshold while the
	// faults are armed, counting one report per stalled mechanism per scan.
	stop, stalls := make(chan struct{}), make(chan int)
	go func() {
		n, tick := 0, time.NewTicker(chaosStallThreshold/2)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				stalls <- n
				return
			case <-tick.C:
				n += len(core.ScanStalls(chaosStallThreshold, subject.sems...))
			}
		}
	}()
	inj.Arm()
	faulted := chaosRound("faulted", subject.run)
	inj.Disarm()
	close(stop)
	cell.StallReports = <-stalls

	// Warm the twin as the faulted phase warmed the subject; a pair is
	// {baseline, recovery}.
	twin.run()
	pairs := make([][2]ChaosPhase, chaosRounds)
	for i := range pairs {
		if i%2 == 0 {
			pairs[i][0], pairs[i][1] = chaosRound("baseline", twin.run), chaosRound("recovery", subject.run)
		} else {
			pairs[i][1], pairs[i][0] = chaosRound("recovery", subject.run), chaosRound("baseline", twin.run)
		}
	}
	ratio := func(p [2]ChaosPhase) float64 { return p[1].OpsPerSec / p[0].OpsPerSec }
	sort.Slice(pairs, func(i, j int) bool { return ratio(pairs[i]) < ratio(pairs[j]) })
	mid := pairs[len(pairs)/2]
	cell.Phases = []ChaosPhase{mid[0], faulted, mid[1]}

	sems := slices.Concat(subject.sems, twin.sems)
	cell.Panics, cell.SlowHolds, cell.Delays = inj.Counts()
	cell.LeakedLocks, cell.LeakedWaiters, cell.QuiesceError = drainAudit(sems, waiters0)

	// Telemetry cross-check: the same instances seen through a telemetry
	// registry snapshot must report the same outstanding holds the audit
	// above found, and the section-panic counter delta must equal the
	// injector's panic count.
	reg := telemetry.NewRegistry()
	reg.Register(app, "chaos", sems...)
	for _, g := range reg.Snapshot().Groups {
		cell.TelemetryHolds += g.OutstandingHolds
	}
	cell.RecoveredPanics = core.SectionPanicsRecovered() - panics0
	if base := cell.Phases[0].OpsPerSec; base > 0 {
		cell.RecoveryRatio = cell.Phases[2].OpsPerSec / base
	}
	return cell
}

// chaosGroups are the gossip cells' four groups.
var chaosGroups = []string{"g0", "g1", "g2", "g3"}

// chaosPolicy is the "gossip-resilient" cell's policy: bounded patience
// and a breaker tripping on its own sections' stalls.
func chaosPolicy() *resilience.Policy {
	return resilience.New("gossip-chaos", resilience.Config{
		Patience: 500 * time.Microsecond,
		Breaker: &resilience.BreakerConfig{
			Window:        100 * time.Millisecond,
			Buckets:       4,
			TripStallRate: 2000,
			Cooldown:      time.Millisecond,
			Probes:        2,
		},
	})
}

// chaosGossipCell runs the gossip router behind pol through the three
// phases, its twin behind twinPol. With nil policies every operation
// blocks until the fault clears, so any error is a bug and fails the
// cell; with a policy, operations it gives up on — stalled past the
// patience, or breaker-refused — are dropped (counted), and pol's
// breaker counters land in the cell. The structural recovery criteria
// apply to both alike.
func chaosGossipCell(cfg ChaosConfig, app string, pol, twinPol *resilience.Policy) (ChaosCell, error) {
	payload := []byte("chaos-payload")
	opsPer := cfg.OpsPerPhase / cfg.Workers
	newApp := func(pol *resilience.Policy, hook func(string), tally *outcomes) chaosApp {
		o := gossip.NewOurs(0, plan.Options{})
		o.FaultHook = hook
		seedGroups(o, chaosGroups)
		r := gossip.NewResilient(o, pol)
		return chaosApp{o.Sems(), func() (int, uint64) {
			var faulted atomic.Uint64
			parallel(cfg.Workers, func(w int) {
				for i := 0; i < opsPer; i++ {
					g, m := chaosGroups[(w+i)%4], memberNames[i%8]
					op := (w*31 + i*7) % 100
					var err error
					hit := chaos.Shield(func() {
						switch {
						case op < 10:
							err = r.RegisterErrV(g, m, gossip.NewConn(m, 0))
						case op < 20:
							err = r.UnregisterErrV(g, m)
						case op < 50:
							err = r.UnicastErrV(g, m, payload)
						case op < 60:
							_, err = r.LookupErrV(g, m)
						default:
							err = r.MulticastErrV(g, payload)
						}
					})
					if hit {
						faulted.Add(1)
					}
					tally.add(pol, err)
				}
			})
			return opsPer * cfg.Workers, faulted.Load()
		}}
	}
	var tally, twinTally outcomes
	inj := chaosInjector()
	cell := runChaosPhases(app, inj, newApp(pol, inj.Hook, &tally), newApp(twinPol, chaosInjector().Hook, &twinTally))
	cell.Dropped = uint64(tally.dropped.Load())
	if pol != nil { // a nil policy has no breaker to read
		st := pol.Breaker().Stats()
		cell.BreakerTrips = st.Counters["tripped"]
		cell.BreakerRejects = st.Counters["rejected"]
	}
	return cell, errors.Join(tally.err(app), twinTally.err(app+" twin"))
}

// chaosIntruderCell runs the reassembly pipeline through the three
// phases; each round processes a fresh capture of cfg.Flows flows.
func chaosIntruderCell(cfg ChaosConfig) ChaosCell {
	newApp := func(hook func(string)) chaosApp {
		proc := intruder.NewOurs(plan.Options{})
		proc.FaultHook = hook
		seed := int64(0)
		return chaosApp{proc.Sems(), func() (int, uint64) {
			seed++
			w := intruder.Generate(intruder.Config{Attacks: 10, MaxLength: 64, Flows: cfg.Flows, Seed: seed})
			// Injected panics drop packets, leaving their flows incomplete in
			// the reassembly map across rounds — so each round must use a
			// disjoint FlowID range or a stale half-built flow would collide
			// with a fresh flow of the same ID (and different fragment count).
			for i := range w.Packets {
				w.Packets[i].FlowID += int(seed) * cfg.Flows
			}
			var faulted atomic.Uint64
			parallel(cfg.Workers, func(wk int) {
				for i := wk; i < len(w.Packets); i += cfg.Workers {
					p := w.Packets[i]
					if chaos.Shield(func() { proc.Process(p) }) {
						faulted.Add(1)
					}
					chaos.Shield(func() { proc.Pop() })
				}
			})
			return len(w.Packets), faulted.Load()
		}}
	}
	inj := chaosInjector()
	return runChaosPhases("intruder", inj, newApp(inj.Hook), newApp(chaosInjector().Hook))
}

// ChaosBench runs the chaos experiment for both applications and
// computes the summary criteria.
func ChaosBench(cfg ChaosConfig) (*ChaosReport, error) {
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
	plain, err := chaosGossipCell(cfg, "gossip", nil, nil)
	if err != nil {
		return nil, err
	}
	policied, err := chaosGossipCell(cfg, "gossip-resilient", chaosPolicy(), chaosPolicy())
	if err != nil {
		return nil, err
	}
	rep.Cells = append(rep.Cells, plain, policied, chaosIntruderCell(cfg))

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
	return rep, nil
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
