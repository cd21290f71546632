package bench

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/gossip"
	"repro/internal/core"
	"repro/internal/modules/plan"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// ResilienceBench is the graceful-degradation experiment behind
// `benchall -exp resilience`: the gossip router under a time-based
// saboteur that repeatedly grabs one hot group's locks and sits on them
// (a slow-hold injected through the register fault point), swept over
// hold durations at a fixed re-hold interval. Each sweep point runs the
// same mixed workload twice — policies OFF (the plain blocking router)
// and policies ON (bounded-patience acquisitions, a circuit breaker on
// the hot traffic class, lookups that try the optimistic envelope
// first) — and the report's retention curve is the ratio of completed
// operations per second, ON over OFF.
//
// The injection is time-based, not op-count-based, deliberately: a
// per-op injector advances with completed work, which makes both sides
// equally injection-bound and flattens the curve. A saboteur holding
// the lock for 4ms out of every 5ms starves a blocking workload no
// matter how fast it is, while a policied workload fails the hot class
// fast and keeps the cold classes flowing — exactly the degradation the
// resilience layer exists to bound.
type ResilienceConfig struct {
	Duration time.Duration   // per-cell measurement window (default 300ms)
	Workers  int             // client goroutines (default 8)
	Holds    []time.Duration // saboteur hold sweep (default 0, 2ms, 5ms, 9ms)
	Interval time.Duration   // saboteur re-hold period (default 10ms)
}

// ResiliencePoint is one sweep point: the same workload with and
// without policies at one saboteur hold duration.
type ResiliencePoint struct {
	HoldMS       float64 `json:"hold_ms"`
	OffOps       int     `json:"off_ops"`
	OffOpsPerSec float64 `json:"off_ops_per_sec"`
	OnOps        int     `json:"on_ops"`
	OnOpsPerSec  float64 `json:"on_ops_per_sec"`
	Retention    float64 `json:"retention"` // on ÷ off

	// Policy-side accounting for the ON run.
	Dropped        uint64 `json:"dropped_ops"`     // attempts abandoned after the policy gave up
	BreakerTrips   uint64 `json:"breaker_trips"`   // hot-class breaker openings
	BreakerRejects uint64 `json:"breaker_rejects"` // attempts refused while open

	LeakedLocks   int64  `json:"leaked_locks"`   // outstanding holds after the ON run; must be 0
	LeakedWaiters int64  `json:"leaked_waiters"` // registered-waiter delta after the ON run; must be 0
	QuiesceError  string `json:"quiesce_error,omitempty"`
}

// ResilienceReport is the content of BENCH_resilience.json.
type ResilienceReport struct {
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Workers    int                     `json:"workers"`
	CellSec    float64                 `json:"cell_seconds"`
	IntervalMS float64                 `json:"saboteur_interval_ms"`
	Points     []ResiliencePoint       `json:"points"`
	Policies   []telemetry.PolicyStats `json:"policy_state"` // final policy rows from the max-hold ON cell
	Criteria   map[string]float64      `json:"criteria"`
}

// resilienceReport is BENCH_resilience.json's schema. Strict is the
// degradation criterion: at the harshest injection rate the policied
// router retains at least twice the blocking router's completed
// throughput, its policies did engage, and nothing leaked.
var resilienceReport = Report{
	ID: "resilience", File: "BENCH_resilience.json",
	Run:    func(RunOptions) (Formatter, error) { return ResilienceBench(ResilienceConfig{}), nil },
	Fields: []string{"gomaxprocs", "workers", "points", "policy_state", "criteria"},
	Criteria: []string{"retention_at_max_hold", "retention_at_zero_hold", "policies_engaged_at_max_hold",
		"leaked_locks_total", "leaked_waiters_total", "quiesce_failures"},
	Strict: append(zero("leaked_locks_total", "leaked_waiters_total", "quiesce_failures"),
		Bound{"retention_at_max_hold", 2, inf}, Bound{"policies_engaged_at_max_hold", 1, inf}),
}

// resilienceGroups is the workload's group layout: one hot group the
// saboteur sits on, three cold groups that must keep flowing.
var resilienceGroups = []string{"hot", "c0", "c1", "c2"}

// resilienceSeed registers eight members per group.
func resilienceSeed(r gossip.Router) {
	for _, g := range resilienceGroups {
		for m := 0; m < 8; m++ {
			name := fmt.Sprintf("m%d", m)
			r.Register(g, name, gossip.NewConn(name, 0))
		}
	}
}

// resilienceSaboteur holds the hot group's locks for `hold` out of
// every `interval` by running a register whose fault hook sleeps. The
// loop is self-paced (hold, then sleep the remainder) rather than
// ticker-driven so the duty cycle survives scheduler starvation on
// small GOMAXPROCS — a dropped-tick saboteur under-injects exactly when
// the machine is busiest. It owns the router's FaultHook; the workload
// never calls Register, so the injection clock is wall time,
// independent of workload progress.
func resilienceSaboteur(o *gossip.Ours, hold, interval time.Duration, stop <-chan struct{}, wg *sync.WaitGroup) {
	o.FaultHook = func(site string) {
		if site == "register" {
			time.Sleep(hold)
		}
	}
	gap := interval - hold
	if gap < 200*time.Microsecond {
		gap = 200 * time.Microsecond
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn := gossip.NewConn("sab", 0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			o.Register("hot", "sab", conn) // parks `hold` at the fault point
			time.Sleep(gap)
		}
	}()
}

// resilienceOffCell measures the blocking router under the saboteur:
// every operation completes, however long it blocks.
func resilienceOffCell(cfg ResilienceConfig, hold time.Duration) (int, float64) {
	o := gossip.NewOurs(0, plan.Options{})
	resilienceSeed(o)
	payload := []byte("resilience-payload")

	stop := make(chan struct{})
	var sabWG, wg sync.WaitGroup
	if hold > 0 {
		resilienceSaboteur(o, hold, cfg.Interval, stop, &sabWG)
	}
	var ops atomic.Int64
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += 1 {
				select {
				case <-stop:
					return
				default:
				}
				g, m := resilienceOp(i)
				switch i % 5 {
				case 0, 1:
					o.Unicast(g, m, payload)
				case 2:
					o.Multicast(g, payload)
				default:
					o.Lookup(g, m)
				}
				ops.Add(1)
				// Yield between ops on both sides of the comparison:
				// router clients are I/O-bound in reality, and without
				// the yield a small-GOMAXPROCS scheduler lets the
				// CPU-bound client loops starve the saboteur itself,
				// silently under-injecting.
				runtime.Gosched()
			}
		}(w)
	}
	t0 := time.Now()
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	sabWG.Wait()
	elapsed := time.Since(t0)
	o.FaultHook = nil
	return int(ops.Load()), float64(ops.Load()) / elapsed.Seconds()
}

// resilienceOp maps a loop counter to (group, member): half the
// operations touch the hot group, half are spread over the cold ones.
func resilienceOp(i int) (string, string) {
	m := fmt.Sprintf("m%d", i%8)
	if i%2 == 0 {
		return "hot", m
	}
	return resilienceGroups[1+(i/2)%3], m
}

// resiliencePolicies builds the ON side's two traffic-class policies:
// the hot class gets tight patience and a breaker tripping on the
// unified stall feed with a short cooldown (open = fail fast during a
// hold, probe recovery after), while the cold class runs with bounded
// patience only (its traffic is healthy; a process-wide breaker would
// punish it for the hot class's stalls).
func resiliencePolicies() (hot, cold *resilience.Policy) {
	hot = resilience.New("gossip-hot", resilience.Config{
		Patience: 300 * time.Microsecond,
		Breaker: &resilience.BreakerConfig{
			Window:        100 * time.Millisecond,
			Buckets:       4,
			TripStallRate: 500,
			Cooldown:      500 * time.Microsecond,
			Probes:        2,
		},
	})
	cold = resilience.New("gossip-cold", resilience.Config{Patience: 300 * time.Microsecond})
	return hot, cold
}

// resilienceOnCell measures the policied router under the same
// saboteur: operations complete or are dropped — never wedge.
func resilienceOnCell(cfg ResilienceConfig, hold time.Duration) (ResiliencePoint, []telemetry.PolicyStats) {
	o := gossip.NewOurs(0, plan.Options{})
	resilienceSeed(o)
	payload := []byte("resilience-payload")
	waiters0 := core.WaitersOutstanding()

	polHot, polCold := resiliencePolicies()
	rHot := gossip.NewResilient(o, polHot)
	rCold := gossip.NewResilient(o, polCold)
	mgr := resilience.NewManager(nil)
	mgr.Add(polHot)
	mgr.Add(polCold)
	mgr.Start()

	stop := make(chan struct{})
	var sabWG, wg sync.WaitGroup
	if hold > 0 {
		resilienceSaboteur(o, hold, cfg.Interval, stop, &sabWG)
	}
	var ops, dropped atomic.Int64
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += 1 {
				select {
				case <-stop:
					return
				default:
				}
				g, m := resilienceOp(i)
				r := rCold
				if g == "hot" {
					r = rHot
				}
				var err error
				switch i % 5 {
				case 0, 1:
					err = r.UnicastErr(g, m, payload)
				case 2:
					err = r.MulticastErr(g, payload)
				default:
					_, err = r.LookupErrV(g, m)
				}
				if err == nil {
					ops.Add(1)
				} else {
					dropped.Add(1)
				}
				runtime.Gosched() // same yield as the OFF side

			}
		}(w)
	}
	t0 := time.Now()
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	sabWG.Wait()
	elapsed := time.Since(t0)
	mgr.Stop()
	o.FaultHook = nil

	pt := ResiliencePoint{
		HoldMS:      float64(hold) / float64(time.Millisecond),
		OnOps:       int(ops.Load()),
		OnOpsPerSec: float64(ops.Load()) / elapsed.Seconds(),
		Dropped:     uint64(dropped.Load()),
	}
	stats := append(polHot.Stats(), polCold.Stats()...)
	for _, row := range stats {
		if row.Kind == "breaker" {
			pt.BreakerTrips += row.Counters["tripped"]
			pt.BreakerRejects += row.Counters["rejected"]
		}
	}
	for _, s := range o.Sems() {
		pt.LeakedLocks += s.OutstandingHolds()
		if err := s.CheckQuiesced(); err != nil && pt.QuiesceError == "" {
			pt.QuiesceError = err.Error()
		}
	}
	pt.LeakedWaiters = core.WaitersOutstanding() - waiters0
	return pt, stats
}

// ResilienceBench runs the sweep and computes the summary criteria.
func ResilienceBench(cfg ResilienceConfig) *ResilienceReport {
	if cfg.Duration == 0 {
		cfg.Duration = 300 * time.Millisecond
	}
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	if len(cfg.Holds) == 0 {
		cfg.Holds = []time.Duration{0, 2 * time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond}
	}
	if cfg.Interval == 0 {
		cfg.Interval = 10 * time.Millisecond
	}
	rep := &ResilienceReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    cfg.Workers,
		CellSec:    cfg.Duration.Seconds(),
		IntervalMS: float64(cfg.Interval) / float64(time.Millisecond),
		Criteria:   map[string]float64{},
	}
	for _, hold := range cfg.Holds {
		offOps, offRate := resilienceOffCell(cfg, hold)
		pt, stats := resilienceOnCell(cfg, hold)
		pt.OffOps, pt.OffOpsPerSec = offOps, offRate
		if offRate > 0 {
			pt.Retention = pt.OnOpsPerSec / offRate
		}
		rep.Points = append(rep.Points, pt)
		rep.Policies = stats // keep the last (highest-hold) cell's rows
	}

	var leakedLocks, leakedWaiters int64
	var quiesceFailures, engaged float64
	for _, pt := range rep.Points {
		leakedLocks += pt.LeakedLocks
		leakedWaiters += pt.LeakedWaiters
		if pt.QuiesceError != "" {
			quiesceFailures++
		}
	}
	last := rep.Points[len(rep.Points)-1]
	engaged = float64(last.Dropped + last.BreakerRejects)
	// Pass condition (-chaos-strict): retention_at_max_hold ≥ 2.0 and
	// the leak/quiesce criteria exactly 0. retention_at_zero_hold is the
	// policy overhead check — informational, expected near 1.0.
	rep.Criteria["retention_at_max_hold"] = last.Retention
	rep.Criteria["retention_at_zero_hold"] = rep.Points[0].Retention
	rep.Criteria["policies_engaged_at_max_hold"] = engaged
	rep.Criteria["leaked_locks_total"] = float64(leakedLocks)
	rep.Criteria["leaked_waiters_total"] = float64(leakedWaiters)
	rep.Criteria["quiesce_failures"] = quiesceFailures
	return rep
}

// Format renders the report as the retention curve table.
func (r *ResilienceReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resilience — graceful degradation under slow-hold injection, GOMAXPROCS=%d\n", r.GOMAXPROCS)
	fmt.Fprintf(&b, "(%d workers, %.0fms cells, saboteur re-hold every %.0fms; ops/sec are completed operations)\n",
		r.Workers, r.CellSec*1000, r.IntervalMS)
	fmt.Fprintf(&b, "%-9s%14s%14s%11s%9s%9s%10s\n",
		"hold(ms)", "off ops/s", "on ops/s", "retention", "dropped", "b.trips", "b.rejects")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-9.1f%14.0f%14.0f%11.2f%9d%9d%10d\n",
			p.HoldMS, p.OffOpsPerSec, p.OnOpsPerSec, p.Retention,
			p.Dropped, p.BreakerTrips, p.BreakerRejects)
	}
	fmt.Fprintf(&b, "\npolicy state (max-hold cell):\n")
	for _, row := range r.Policies {
		fmt.Fprintf(&b, "  %-12s %-8s %-10s %v\n", row.Policy, row.Kind, row.State, row.Counters)
	}
	return b.String() + formatCriteria(r.Criteria)
}

// resilienceDropped reports whether err is a policy's deliberate give-up
// — a stall past the patience or a breaker refusal — which the chaos
// harness counts as an absorbed drop, not a failure.
func resilienceDropped(err error) bool {
	var stall *core.StallError
	return errors.As(err, &stall) || errors.Is(err, resilience.ErrBreakerOpen)
}
