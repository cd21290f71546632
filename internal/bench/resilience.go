package bench

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/gossip"
	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// ResilienceBench is the graceful-degradation experiment behind
// `benchall -exp resilience`: the gossip router under a time-based
// saboteur that repeatedly grabs one hot group's locks and sits on them
// (a slow-hold injected through the register fault point), swept over
// hold durations at a fixed re-hold interval. Each sweep point runs the
// same mixed workload through the same gossip.Resilient wrappers on two
// routers: policies OFF (a nil policy, so every section blocks as the
// plain router does) and policies ON (bounded-patience acquisitions and
// a circuit breaker on the hot traffic class). The two arms differ by
// the policy pointer alone, and the report's retention curve is the
// ratio of completed operations per second, ON over OFF, of the median
// pair of alternating rounds (medianPair).
//
// The injection is time-based, not op-count-based, deliberately: a
// per-op injector advances with completed work, which makes both sides
// equally injection-bound and flattens the curve. A saboteur holding
// the lock for 4ms out of every 5ms starves a blocking workload no
// matter how fast it is, while a policied workload fails the hot class
// fast and keeps the cold classes flowing — exactly the degradation the
// resilience layer exists to bound.
type ResilienceConfig struct {
	Duration time.Duration // per-round measurement window (default 100ms)
	Workers  int           // client goroutines (default 8)
	Interval time.Duration // saboteur re-hold period (default 10ms)
}

// resilienceHolds is the saboteur hold sweep, lowest first.
var resilienceHolds = []time.Duration{0, 2 * time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond}

// ResiliencePoint is one sweep point: the same workload with and
// without policies at one saboteur hold duration. The ops, rates and
// drops are the median pair's OFF and ON rounds; the breaker counts
// cover every ON round of the point.
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

	LeakedLocks   int64  `json:"leaked_locks"`   // outstanding holds after every round of both arms; must be 0
	LeakedWaiters int64  `json:"leaked_waiters"` // registered-waiter delta over every round of both arms; must be 0
	QuiesceError  string `json:"quiesce_error,omitempty"`
}

// ResilienceReport is the content of BENCH_resilience.json.
type ResilienceReport struct {
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Workers    int                     `json:"workers"`
	CellSec    float64                 `json:"cell_seconds"` // one round's window
	IntervalMS float64                 `json:"saboteur_interval_ms"`
	Points     []ResiliencePoint       `json:"points"`
	Policies   []telemetry.PolicyStats `json:"policy_state"` // final policy rows from the max-hold ON arm
	Criteria   map[string]float64      `json:"criteria"`
}

// resilienceReport is BENCH_resilience.json's schema. Strict is the
// degradation criterion: at the harshest injection rate the policied
// router retains at least twice the blocking router's completed
// throughput, its policies did engage, and nothing leaked.
var resilienceReport = Report{
	ID: "resilience", File: "BENCH_resilience.json",
	Run:    func() (Formatter, error) { return ResilienceBench(ResilienceConfig{}) },
	Fields: []string{"gomaxprocs", "workers", "points", "policy_state", "criteria"},
	Criteria: []string{"retention_at_max_hold", "retention_at_zero_hold", "policies_engaged_at_max_hold",
		"leaked_locks_total", "leaked_waiters_total", "quiesce_failures"},
	Strict: append(zero("leaked_locks_total", "leaked_waiters_total", "quiesce_failures"),
		Bound{"retention_at_max_hold", 2, inf}, Bound{"policies_engaged_at_max_hold", 1, inf}),
}

// resilienceGroups is the workload's group layout: one hot group the
// saboteur sits on, three cold groups that must keep flowing.
var resilienceGroups = []string{"hot", "c0", "c1", "c2"}

// memberNames are the eight members every gossip cell registers per
// group, named once so that no operation formats a name.
var memberNames = []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}

// seedGroups registers every member of memberNames in every group.
func seedGroups(o *gossip.Ours, groups []string) {
	for _, g := range groups {
		for _, m := range memberNames {
			o.Register(g, m, gossip.NewConn(m, 0))
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

// resiliencePolicies builds the ON side's two traffic-class policies:
// the hot class gets tight patience and a breaker tripping on its own
// sections' stalls with a short cooldown (open = fail fast during a
// hold, probe recovery after), while the cold class runs with bounded
// patience only. A breaker counts only the stalls its own policy
// returns, so the classes are separate by construction: the hot class's
// stalls never reach a cold breaker, and a cold breaker would trip
// only on cold stalls.
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

// resilienceArm is one arm of a sweep point: one router for all its
// rounds, its hot and cold groups' policies, and its rounds' tally. nil,
// nil policies are the OFF arm: every section blocks until its locks
// free up, so an error there is a bug and fails the point.
type resilienceArm struct {
	cfg       ResilienceConfig
	hold      time.Duration
	o         *gossip.Ours
	hot, cold *resilience.Policy
	tally     outcomes
}

func newResilienceArm(cfg ResilienceConfig, hold time.Duration, hot, cold *resilience.Policy) *resilienceArm {
	a := &resilienceArm{cfg: cfg, hold: hold, o: gossip.NewOurs(), hot: hot, cold: cold}
	seedGroups(a.o, resilienceGroups)
	return a
}

// round runs the workload for one window under the saboteur and returns
// the operations completed and the operations a policy gave up on. Half
// the operations touch the hot group, half are spread over the cold ones.
func (a *resilienceArm) round() (int, uint64) {
	ok0, dropped0 := a.tally.ok.Load(), a.tally.dropped.Load()
	payload := []byte("resilience-payload")
	rHot, rCold := gossip.NewResilient(a.o, a.hot), gossip.NewResilient(a.o, a.cold)
	stop := make(chan struct{})
	var sabWG sync.WaitGroup
	if a.hold > 0 {
		resilienceSaboteur(a.o, a.hold, a.cfg.Interval, stop, &sabWG)
	}
	time.AfterFunc(a.cfg.Duration, func() { close(stop) })
	parallel(a.cfg.Workers, func(w int) {
		for i := w; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g, m, r, pol := resilienceGroups[0], memberNames[i%8], rHot, a.hot
			if i%2 == 1 {
				g, r, pol = resilienceGroups[1+(i/2)%3], rCold, a.cold
			}
			var err error
			switch i % 5 {
			case 0, 1:
				err = r.UnicastErrV(g, m, payload)
			case 2:
				err = r.MulticastErrV(g, payload)
			default:
				_, err = r.LookupErrV(g, m)
			}
			a.tally.add(pol, err)
			// Yield between ops: router clients are I/O-bound in
			// reality, and without the yield a small-GOMAXPROCS
			// scheduler lets the CPU-bound client loops starve the
			// saboteur itself, silently under-injecting.
			runtime.Gosched()
		}
	})
	sabWG.Wait()
	return int(a.tally.ok.Load() - ok0), uint64(a.tally.dropped.Load() - dropped0)
}

// resiliencePoint measures one hold: the OFF and ON arms in medianPair's
// alternating chaosRounds (a round's Faulted count is its dropped
// operations), then one drain audit over both routers.
func resiliencePoint(cfg ResilienceConfig, hold time.Duration) (ResiliencePoint, []telemetry.PolicyStats, error) {
	waiters0 := core.WaitersOutstanding()
	hot, cold := resiliencePolicies()
	off, on := newResilienceArm(cfg, hold, nil, nil), newResilienceArm(cfg, hold, hot, cold)
	offR, onR := medianPair(
		func() ChaosPhase { return chaosRound("off", off.round) },
		func() ChaosPhase { return chaosRound("on", on.round) },
		func(off, on ChaosPhase) float64 { return on.OpsPerSec / off.OpsPerSec })
	pt := ResiliencePoint{
		HoldMS:       float64(hold) / float64(time.Millisecond),
		OffOps:       offR.Ops,
		OffOpsPerSec: offR.OpsPerSec,
		OnOps:        onR.Ops,
		OnOpsPerSec:  onR.OpsPerSec,
		Dropped:      onR.Faulted,
	}
	if offR.OpsPerSec > 0 {
		pt.Retention = onR.OpsPerSec / offR.OpsPerSec
	}
	pt.LeakedLocks, pt.LeakedWaiters, pt.QuiesceError = drainAudit(slices.Concat(off.o.Sems(), on.o.Sems()), waiters0)
	policies := append(on.hot.Stats(), on.cold.Stats()...)
	for _, row := range policies {
		if row.Kind == "breaker" {
			pt.BreakerTrips += row.Counters["tripped"]
			pt.BreakerRejects += row.Counters["rejected"]
		}
	}
	return pt, policies, errors.Join(off.tally.err("resilience off"), on.tally.err("resilience on"))
}

// ResilienceBench runs the sweep and computes the summary criteria.
func ResilienceBench(cfg ResilienceConfig) (*ResilienceReport, error) {
	if cfg.Duration == 0 {
		cfg.Duration = 100 * time.Millisecond
	}
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	if cfg.Interval == 0 {
		cfg.Interval = 10 * time.Millisecond
	}
	rep := &ResilienceReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    cfg.Workers,
		CellSec:    cfg.Duration.Seconds(),
		IntervalMS: float64(cfg.Interval) / float64(time.Millisecond),
	}
	for _, hold := range resilienceHolds {
		pt, policies, err := resiliencePoint(cfg, hold)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, pt)
		rep.Policies = policies // the last (highest-hold) point's rows stay
	}
	rep.Criteria = resilienceCriteria(rep.Points)
	return rep, nil
}

// resilienceCriteria summarizes the sweep points, lowest hold first.
// Pass condition (-chaos-strict): retention_at_max_hold ≥ 2.0 and the
// leak/quiesce criteria exactly 0. retention_at_zero_hold is the policy
// overhead check — informational, expected near 1.0.
// policies_engaged_at_max_hold counts the ON run's dropped operations,
// breaker refusals included: each refusal already failed one operation.
func resilienceCriteria(points []ResiliencePoint) map[string]float64 {
	var leakedLocks, leakedWaiters int64
	var quiesceFailures float64
	for _, pt := range points {
		leakedLocks += pt.LeakedLocks
		leakedWaiters += pt.LeakedWaiters
		if pt.QuiesceError != "" {
			quiesceFailures++
		}
	}
	last := points[len(points)-1]
	return map[string]float64{
		"retention_at_max_hold":        last.Retention,
		"retention_at_zero_hold":       points[0].Retention,
		"policies_engaged_at_max_hold": float64(last.Dropped),
		"leaked_locks_total":           float64(leakedLocks),
		"leaked_waiters_total":         float64(leakedWaiters),
		"quiesce_failures":             quiesceFailures,
	}
}

// Format renders the report as the retention curve table.
func (r *ResilienceReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resilience — graceful degradation under slow-hold injection, GOMAXPROCS=%d\n", r.GOMAXPROCS)
	fmt.Fprintf(&b, "(%d workers, median of %d pairs of %.0fms rounds, saboteur re-hold every %.0fms; ops/sec are completed operations)\n",
		r.Workers, pairedRounds, r.CellSec*1000, r.IntervalMS)
	fmt.Fprintf(&b, "%-9s%14s%14s%11s%9s%9s%10s\n",
		"hold(ms)", "off ops/s", "on ops/s", "retention", "dropped", "b.trips", "b.rejects")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-9.1f%14.0f%14.0f%11.2f%9d%9d%10d\n",
			p.HoldMS, p.OffOpsPerSec, p.OnOpsPerSec, p.Retention,
			p.Dropped, p.BreakerTrips, p.BreakerRejects)
	}
	fmt.Fprintf(&b, "\npolicy state (max-hold ON arm, all rounds):\n")
	for _, row := range r.Policies {
		fmt.Fprintf(&b, "  %-12s %-8s %-10s %v\n", row.Policy, row.Kind, row.State, row.Counters)
	}
	return b.String() + formatCriteria(r.Criteria)
}

// outcomes tallies a policied workload's operations. An error is a
// drop when the policy that ran the operation gave up on purpose — a
// stall past its patience or a breaker refusal. With no policy nothing
// gives up, so there, as for any other error, the error is a bug: it
// is counted as failed and fails the cell.
type outcomes struct {
	ok, dropped, failed atomic.Int64
	first               atomic.Pointer[error]
}

func (t *outcomes) add(pol *resilience.Policy, err error) {
	switch {
	case err == nil:
		t.ok.Add(1)
	case pol != nil && gaveUp(err):
		t.dropped.Add(1)
	default:
		t.failed.Add(1)
		first := err // only a failure moves its error to the heap
		t.first.CompareAndSwap(nil, &first)
	}
}

// gaveUp reports whether err is a policy's deliberate give-up: a stall
// past its patience or a breaker refusal. It is a function of its own
// so that only an error pays for the heap-allocated errors.As target.
func gaveUp(err error) bool {
	var stall *core.StallError
	return errors.As(err, &stall) || errors.Is(err, resilience.ErrBreakerOpen)
}

// err is the cell's failure: nil unless some operation failed.
func (t *outcomes) err(cell string) error {
	if n := t.failed.Load(); n > 0 {
		return fmt.Errorf("%s: %d operations failed, first: %w", cell, n, *t.first.Load())
	}
	return nil
}
