// Package controlplane is the adaptive feedback loop over the lock
// runtime's tunable knobs (internal/core/tuning.go): a Controller
// periodically snapshots a telemetry.Registry, derives per-group
// signals from the counter deltas — conflict share of acquisitions,
// optimistic validation-failure rate, stall pressure, measured wait
// time — and retunes every registered instance's knobs through the
// core.Tuner surface.
//
// The loop is split observe/decide/apply:
//
//	observe — one Registry.Snapshot per tick; signals are deltas
//	          between consecutive snapshots, never lifetime totals, so
//	          the controller reacts to what the workload is doing NOW.
//	decide  — pure regime functions (DecideSpin, DecideGate,
//	          DecideSummaryScan) map signals to desired knob settings.
//	          They are deliberately coarse three-regime policies: a
//	          feedback controller chasing precision on noisy counters
//	          oscillates, one picking among a few well-separated
//	          settings converges.
//	apply   — a decision is applied only after it has been reproduced
//	          on DecideStreak consecutive ticks (hysteresis), and each
//	          apply starts a cooldown during which the knob holds
//	          still. The controller therefore never flaps between
//	          regimes on boundary workloads; the cost is reaction
//	          latency of DecideStreak ticks.
//
// Controller state (current regime, live knob values, raw signals) is
// exported through the registry's policy-source hook, so wherever
// /debug/semlock is mounted the controller shows up alongside the
// breaker and budget rows with zero extra wiring.
package controlplane

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Signals are one group's observed behavior over the last tick.
type Signals struct {
	// AcqSamples is the number of acquisitions in the interval
	// (fast + slow); deciders hold below MinAcqSamples.
	AcqSamples uint64 `json:"acq_samples"`
	// ConflictRate is the slow-path share of acquisitions: how often an
	// acquisition found a conflicting holder.
	ConflictRate float64 `json:"conflict_rate"`
	// OptSamples is the number of completed optimistic attempts in the
	// interval (validated commits plus discarded re-runs). Observe-time
	// refusals are not samples: they carry no information about whether
	// optimistic work survives, only that a holder was present.
	OptSamples uint64 `json:"opt_samples"`
	// OptFailRate is the validation-failure share of those attempts.
	OptFailRate float64 `json:"opt_fail_rate"`
	// OptRetriesDelta is the raw validation-failure count behind
	// OptFailRate, kept so the controller can pool gate evidence across
	// sample-starved ticks without re-deriving counts from a float.
	OptRetriesDelta uint64 `json:"opt_retries_delta"`
	// OptRefusalRate is observe-time turn-aways per completed attempt —
	// diagnostic only (it measures fallback pressure, largely
	// self-inflicted when the gate is closed), never a decider input.
	OptRefusalRate float64 `json:"opt_refusal_rate"`
	// WaitsDelta is the number of parked waits in the interval.
	WaitsDelta uint64 `json:"waits_delta"`
	// AvgWaitNanos is mean measured blocking time per wait (0 unless
	// wait timing was on).
	AvgWaitNanos float64 `json:"avg_wait_nanos"`
	// StallRate is stall events per second (from the StallFeed when
	// wired, else from the group's stall-counter delta).
	StallRate float64 `json:"stall_rate"`
}

// signalsFrom derives the interval signals from two consecutive
// snapshots of one group. Counter deltas are clamped at zero: group
// membership can shrink between snapshots (provider-backed groups), and
// a negative delta means "restarted population", not negative work.
func signalsFrom(prev, cur telemetry.GroupStats, dt time.Duration) Signals {
	d := func(a, b uint64) uint64 {
		if b < a {
			return 0
		}
		return b - a
	}
	fast := d(prev.FastPath, cur.FastPath)
	slow := d(prev.Slow, cur.Slow)
	hits := d(prev.OptimisticHits, cur.OptimisticHits)
	retries := d(prev.OptimisticRetries, cur.OptimisticRetries)
	refusals := d(prev.OptimisticRefusals, cur.OptimisticRefusals)
	waits := d(prev.Waits, cur.Waits)
	stalls := d(prev.Stalls, cur.Stalls)
	var waitNanos int64
	if cur.WaitNanos > prev.WaitNanos {
		waitNanos = cur.WaitNanos - prev.WaitNanos
	}
	sig := Signals{
		AcqSamples:      fast + slow,
		OptSamples:      hits + retries,
		OptRetriesDelta: retries,
		WaitsDelta:      waits,
	}
	if sig.AcqSamples > 0 {
		sig.ConflictRate = float64(slow) / float64(sig.AcqSamples)
	}
	if sig.OptSamples > 0 {
		sig.OptFailRate = float64(retries) / float64(sig.OptSamples)
		sig.OptRefusalRate = float64(refusals) / float64(sig.OptSamples)
	}
	if waits > 0 {
		sig.AvgWaitNanos = float64(waitNanos) / float64(waits)
	}
	if dt > 0 {
		sig.StallRate = float64(stalls) / dt.Seconds()
	}
	return sig
}

// ---------------------------------------------------------------------
// Decision policies
// ---------------------------------------------------------------------

// Regime thresholds. The bands are deliberately wide apart (a decade or
// more between opposite decisions) so a workload sitting between two
// regimes maps stably to one of them instead of straddling a knife
// edge; the hysteresis streak handles whatever noise remains.
const (
	spinContendedAt = 0.05 // conflict share where longer spinning starts paying
	spinSaturatedAt = 0.40 // conflict share where spinning only burns CPU
	// The gate thresholds follow the re-execution cost model rather than
	// intuition about "low" failure rates. A failed optimistic attempt
	// wastes at most one section body — often less, because observation
	// refuses outright (no body runs at all) while a conflicting holder
	// is visible. The pessimistic envelope it would replace costs
	// multiples of a body for the whole-structure sections that dominate
	// optimistic traffic: real lock acquisitions, plus every writer
	// blocked for the section's full duration. Optimism therefore
	// amortizes up to surprisingly high failure rates, and the measured
	// rate is itself biased upward whenever the gate has recently been
	// closed — the sparse probe traffic collides with the serialized
	// pessimistic fallback the closure caused. Only when nearly every
	// attempt re-executes is closing clearly right; the band between the
	// thresholds is left to the per-instance default gate, which
	// resolves the gray zone locally.
	gateHostileAt  = 0.85 // validation-failure share where optimism is hopeless
	gateFriendlyAt = 0.55 // failure share below which optimism still amortizes
	summaryOnAt    = 0.10 // conflict share where summary-guided scans amortize
	summaryOffAt   = 0.01 // conflict share where exact scans win back
)

// Spin regimes. "calm" is the untuned default; "contended" spins longer
// to dodge the park/unpark round trip while holders churn quickly;
// "saturated" parks almost immediately — with many holders ahead, every
// spin iteration is wasted CPU that the holders themselves need.
var (
	spinCalm      = core.DefaultSpinBounds()
	spinContended = core.SpinBounds{Min: 1, Max: 16}
	spinSaturated = core.SpinBounds{Min: 1, Max: 2}
)

// Gate regimes. "hostile" closes fast (1/8 failures over a short
// window) and stays closed long; "friendly" needs three quarters of a
// long window failing before it closes and probes back quickly. The
// friendly window is deliberately much longer than the failure bursts
// the regime is expected to ride out: validation failures arrive
// correlated — one conflicting write invalidates every optimist whose
// read window contains it, a burst the size of the concurrent-reader
// population — and a short window sampled inside one burst reads as
// near-total failure even when the long-run rate is far below
// break-even. The controller only selects this regime after measuring
// a sustained sub-break-even rate, so the gate's own trigger is set
// where that measurement would have to be wrong by 3x to matter.
var (
	gateHostile  = core.OptGateParams{Window: 32, DisableNum: 1, DisableDen: 8, ProbeInterval: 16384}
	gateNeutral  = core.DefaultOptGateParams()
	gateFriendly = core.OptGateParams{Window: 1024, DisableNum: 3, DisableDen: 4, ProbeInterval: 1024}
)

// DecideSpin maps the group's conflict regime to spin bounds. The
// second result names the regime (for state export and hysteresis
// keying); "hold" keeps the current bounds.
func DecideSpin(sig Signals, minSamples uint64) (core.SpinBounds, string) {
	switch {
	case sig.AcqSamples < minSamples:
		return core.SpinBounds{}, "hold"
	case sig.ConflictRate >= spinSaturatedAt:
		return spinSaturated, "saturated"
	case sig.ConflictRate >= spinContendedAt:
		return spinContended, "contended"
	default:
		return spinCalm, "calm"
	}
}

// DecideGate maps the group's optimistic validation-failure regime to
// gate parameters; "hold" keeps the current ones (too few attempts to
// judge — including an optimism-free workload, whose gate is idle
// anyway).
func DecideGate(sig Signals, minSamples uint64) (core.OptGateParams, string) {
	switch {
	case sig.OptSamples < minSamples:
		return core.OptGateParams{}, "hold"
	case sig.OptFailRate >= gateHostileAt:
		return gateHostile, "hostile"
	case sig.OptFailRate <= gateFriendlyAt:
		return gateFriendly, "friendly"
	default:
		return gateNeutral, "neutral"
	}
}

// DecideSummaryScan maps the conflict regime to summary-scan usage:
// contended conflict checks amortize the summary read, near-idle ones
// are cheaper exact. Between the thresholds the current setting holds.
func DecideSummaryScan(sig Signals, cur bool, minSamples uint64) (bool, string) {
	switch {
	case sig.AcqSamples < minSamples:
		return cur, "hold"
	case sig.ConflictRate >= summaryOnAt:
		return true, "scan"
	case sig.ConflictRate <= summaryOffAt:
		return false, "exact"
	default:
		return cur, "hold"
	}
}

// ---------------------------------------------------------------------
// Hysteresis
// ---------------------------------------------------------------------

// hyst is per-knob flap damping: a decision differing from the applied
// setting must repeat on `streakNeed` consecutive ticks before Step
// reports it applicable, and each apply starts a cooldown during which
// every decision is ignored. Keys are regime names — comparing regimes
// rather than raw values keeps "hold" decisions from resetting streaks.
type hyst struct {
	applied  string // regime currently in force ("" = startup default)
	pending  string
	streak   int
	cooldown int
}

// Step feeds one tick's desired regime; it returns true when the
// desire has persisted long enough and should be applied now.
//
// "hold" freezes the pending streak rather than resetting it: hold
// means "no evidence this tick" (sample floor not met, dead band), and
// no-evidence must not be conflated with contradicting evidence. A
// mostly-closed gate produces decidable signals only every few ticks —
// if the starved ticks in between wiped the streak, two consecutive
// agreeing decisions could never accumulate and the knob would be
// pinned at whatever it started as. Only an opposing decision, a
// re-decision of the applied regime, or a cooldown resets the streak.
func (h *hyst) Step(desired string, streakNeed, cooldownTicks int) bool {
	if h.cooldown > 0 {
		h.cooldown--
		h.pending, h.streak = "", 0
		return false
	}
	if desired == "hold" {
		return false
	}
	if desired == h.applied {
		h.pending, h.streak = "", 0
		return false
	}
	if desired != h.pending {
		h.pending, h.streak = desired, 0
	}
	h.streak++
	if h.streak < streakNeed {
		return false
	}
	h.applied = desired
	h.pending, h.streak = "", 0
	h.cooldown = cooldownTicks
	return true
}

// ---------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------

// Config tunes a Controller. Registry is required; everything else has
// working defaults.
type Config struct {
	// Registry supplies both the observations (Snapshot) and the retune
	// targets (Groups). Required.
	Registry *telemetry.Registry
	// Interval is the tick period. Default 250ms.
	Interval time.Duration
	// Feed, when set, supplies the windowed stall rate; otherwise the
	// per-group stall-counter deltas stand in.
	Feed *telemetry.StallFeed
	// Watchdog, when set, has its sampling interval retuned: quartered
	// while stalls are flowing, restored when they stop.
	Watchdog *core.Watchdog
	// DecideStreak is how many consecutive ticks must agree on a regime
	// change before it is applied. Default 2.
	DecideStreak int
	// CooldownTicks is how many ticks a knob holds still after an
	// apply. Default 4.
	CooldownTicks int
	// ManageWaitTiming lets the controller toggle global wait-time
	// sampling: on while waits or stalls are flowing (so AvgWaitNanos
	// and the stall bounds mean something), off again after a quiet
	// spell. Off by default — the process may have its own policy.
	ManageWaitTiming bool
	// MinAcqSamples / MinOptSamples are the per-tick sample floors
	// below which the spin/summary and gate deciders hold. Defaults
	// 256 and 64.
	MinAcqSamples uint64
	MinOptSamples uint64
}

func (cfg Config) withDefaults() Config {
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.DecideStreak <= 0 {
		cfg.DecideStreak = 2
	}
	if cfg.CooldownTicks <= 0 {
		cfg.CooldownTicks = 4
	}
	if cfg.MinAcqSamples == 0 {
		cfg.MinAcqSamples = 256
	}
	if cfg.MinOptSamples == 0 {
		cfg.MinOptSamples = 64
	}
	return cfg
}

// groupKey identifies one registry row.
type groupKey struct{ group, class string }

// groupState is the controller's memory of one group.
type groupState struct {
	prev     telemetry.GroupStats
	havePrev bool
	sig      Signals

	spinH, gateH, sumH hyst
	applies            uint64

	// gateStarve counts consecutive sample-starved ticks spent in the
	// applied hostile regime; at gateExploreTicks the controller runs an
	// exploration epoch (see Tick). explorations counts those epochs.
	gateStarve   int
	explorations uint64

	// optAccSamples/optAccRetries pool gate evidence across ticks whose
	// own optimistic-sample count stays below MinOptSamples: a closed
	// gate admits only sparse probe bursts per interval, and discarding
	// each sub-floor tick would starve the gate decider indefinitely.
	// Reset whenever the gate decider receives a decidable signal.
	optAccSamples uint64
	optAccRetries uint64
}

// Controller is the adaptive control plane. Create with New, then
// either Start the background ticker or drive Tick directly (tests and
// benchmarks do the latter for determinism).
type Controller struct {
	cfg Config

	mu     sync.Mutex
	groups map[groupKey]*groupState
	ticks  uint64

	// wait-timing management
	waitOn     bool
	quietTicks int

	// watchdog management
	wdBase   time.Duration
	wdFast   bool
	wdCalm   int
	lastTick time.Time

	stop chan struct{}
	done chan struct{}
}

// waitQuietTicks is how many consecutive no-wait ticks turn managed
// wait timing back off; same damping role as CooldownTicks but for a
// global switch with a global cost.
const waitQuietTicks = 8

// gateExploreTicks is how many consecutive sample-starved ticks a group
// may sit in the hostile gate regime before the controller reopens the
// gate to re-measure. This is a backstop, not the primary recovery
// path: the gate's own probe point reopens it periodically, and a
// workload whose refusal handling lets the pessimistic queue drain
// (see internal/bench yieldStore.Refresh) recovers through ordinary
// probe measurements well before this fires. Large enough that a
// genuinely hostile workload spends only a small duty cycle re-proving
// itself (DecideStreak open ticks per gateExploreTicks closed ones).
const gateExploreTicks = 64

// New creates a controller. It does not start ticking; call Start, or
// Tick directly.
func New(cfg Config) *Controller {
	if cfg.Registry == nil {
		panic("controlplane: Config.Registry is required")
	}
	c := &Controller{cfg: cfg.withDefaults(), groups: map[groupKey]*groupState{}}
	if c.cfg.Watchdog != nil {
		c.wdBase = c.cfg.Watchdog.Interval()
	}
	return c
}

// Start launches the background ticker and registers the controller's
// state rows with the registry (policy source "controlplane"). Safe to
// call once; Stop undoes both.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.stop != nil {
		c.mu.Unlock()
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	stop, done := c.stop, c.done
	c.mu.Unlock()
	c.cfg.Registry.RegisterPolicySource("controlplane", c.State)
	go func() {
		defer close(done)
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.Tick()
			}
		}
	}()
}

// Stop halts the ticker, unregisters the state rows, and — when the
// controller managed wait timing — turns it back off. Knob values stay
// where the controller left them; call ResetKnobs to restore defaults.
func (c *Controller) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	managedOn := c.waitOn
	c.waitOn = false
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
		c.cfg.Registry.UnregisterPolicySource("controlplane")
	}
	if c.cfg.ManageWaitTiming && managedOn {
		core.SetWaitTiming(false)
	}
	if c.cfg.Watchdog != nil && c.wdBase > 0 {
		c.cfg.Watchdog.SetInterval(c.wdBase)
	}
}

// ResetKnobs restores every registered instance to the default knob
// settings (benchmark harnesses use it between profiles).
func (c *Controller) ResetKnobs() {
	for _, g := range c.cfg.Registry.Groups() {
		for _, s := range g.Sems {
			s.SetSpinBounds(core.DefaultSpinBounds())
			s.SetOptGateParams(core.DefaultOptGateParams())
			s.SetSummaryScan(s.SummaryMaintained())
		}
	}
}

// Tick runs one observe/decide/apply round. Exported so tests and
// benchmark harnesses can drive the controller deterministically.
func (c *Controller) Tick() {
	snap := c.cfg.Registry.Snapshot()
	groups := c.cfg.Registry.Groups()

	stats := make(map[groupKey]telemetry.GroupStats, len(snap.Groups))
	for _, g := range snap.Groups {
		stats[groupKey{g.Group, g.Class}] = g
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticks++
	now := time.Now()
	dt := c.cfg.Interval
	if !c.lastTick.IsZero() {
		if d := now.Sub(c.lastTick); d > 0 {
			dt = d
		}
	}
	c.lastTick = now

	feedRate := -1.0
	if c.cfg.Feed != nil {
		feedRate = c.cfg.Feed.Rate()
	}

	anyWaits := false
	stallTotal := 0.0
	for _, g := range groups {
		if len(g.Sems) == 0 {
			continue
		}
		k := groupKey{g.Group, g.Class}
		cur, ok := stats[k]
		if !ok {
			continue
		}
		st := c.groups[k]
		if st == nil {
			st = &groupState{}
			c.groups[k] = st
		}
		sig := Signals{}
		if st.havePrev {
			sig = signalsFrom(st.prev, cur, dt)
		}
		st.prev, st.havePrev = cur, true
		if feedRate >= 0 {
			sig.StallRate = feedRate
		}
		st.sig = sig
		stallTotal += sig.StallRate
		if sig.WaitsDelta > 0 {
			anyWaits = true
		}

		// Knobs are kept in step across a group's instances, so the
		// first instance's current values stand for all.
		lead := g.Sems[0]

		if _, regime := DecideSpin(sig, c.cfg.MinAcqSamples); st.spinH.Step(regime, c.cfg.DecideStreak, c.cfg.CooldownTicks) {
			b, _ := DecideSpin(sig, c.cfg.MinAcqSamples)
			for _, s := range g.Sems {
				s.SetSpinBounds(b)
			}
			st.applies++
		}
		// The gate decider reads pooled evidence: a tick that clears
		// MinOptSamples on its own decides from its fresh signal, but a
		// mostly-closed gate admits only sparse probe bursts — a trickle
		// of samples per tick that would individually be discarded as
		// undersampled. Pool the trickle until it clears the floor, then
		// decide from the pooled rate; either way a decidable signal
		// resets the pool so stale evidence does not linger.
		gsig := sig
		st.optAccSamples += sig.OptSamples
		st.optAccRetries += sig.OptRetriesDelta
		if sig.OptSamples < c.cfg.MinOptSamples && st.optAccSamples >= c.cfg.MinOptSamples {
			gsig.OptSamples = st.optAccSamples
			gsig.OptFailRate = float64(st.optAccRetries) / float64(st.optAccSamples)
		}
		if gsig.OptSamples >= c.cfg.MinOptSamples {
			st.optAccSamples, st.optAccRetries = 0, 0
		}
		// A closed gate starves its own evidence: with optimism parked,
		// the only validation samples are sparse probes, and those
		// collide with the serialized pessimistic fallback the closure
		// itself caused, so the measured failure rate stays pinned high
		// no matter what the workload now looks like. After enough
		// sample-starved ticks in the hostile regime, run an exploration
		// epoch: reopen the gate and let the following ticks decide from
		// a healthy open-gate measurement. A genuinely hostile workload
		// re-earns its closure within DecideStreak ticks; a wrongly
		// closed one is released for good.
		if _, regime := DecideGate(gsig, c.cfg.MinOptSamples); regime == "hold" && st.gateH.applied == "hostile" {
			st.gateStarve++
			if st.gateStarve >= gateExploreTicks {
				st.gateStarve = 0
				st.gateH = hyst{}
				st.explorations++
				for _, s := range g.Sems {
					s.SetOptGateParams(gateFriendly)
				}
			}
		} else {
			st.gateStarve = 0
		}
		if _, regime := DecideGate(gsig, c.cfg.MinOptSamples); st.gateH.Step(regime, c.cfg.DecideStreak, c.cfg.CooldownTicks) {
			p, _ := DecideGate(gsig, c.cfg.MinOptSamples)
			for _, s := range g.Sems {
				s.SetOptGateParams(p)
			}
			st.applies++
		}
		if _, regime := DecideSummaryScan(sig, lead.SummaryScanNow(), c.cfg.MinAcqSamples); st.sumH.Step(regime, c.cfg.DecideStreak, c.cfg.CooldownTicks) {
			on, _ := DecideSummaryScan(sig, lead.SummaryScanNow(), c.cfg.MinAcqSamples)
			for _, s := range g.Sems {
				s.SetSummaryScan(on)
			}
			st.applies++
		}
	}

	// Global wait-timing management: on at the first sign of parked
	// waiters or stalls (so the next interval's AvgWaitNanos is real),
	// off again after a sustained quiet spell.
	if c.cfg.ManageWaitTiming {
		active := anyWaits || stallTotal > 0
		if active {
			c.quietTicks = 0
			if !c.waitOn {
				c.waitOn = true
				core.SetWaitTiming(true)
			}
		} else if c.waitOn {
			c.quietTicks++
			if c.quietTicks >= waitQuietTicks {
				c.waitOn = false
				c.quietTicks = 0
				core.SetWaitTiming(false)
			}
		}
	}

	// Watchdog sampling: quarter the interval while stalls are flowing,
	// restore after the same quiet spell the wait switch uses.
	if c.cfg.Watchdog != nil && c.wdBase > 0 {
		if stallTotal > 0 {
			c.wdCalm = 0
			if !c.wdFast {
				c.wdFast = true
				iv := c.wdBase / 4
				if iv < time.Millisecond {
					iv = time.Millisecond
				}
				c.cfg.Watchdog.SetInterval(iv)
			}
		} else if c.wdFast {
			c.wdCalm++
			if c.wdCalm >= waitQuietTicks {
				c.wdFast = false
				c.wdCalm = 0
				c.cfg.Watchdog.SetInterval(c.wdBase)
			}
		}
	}
}

// Ticks returns how many observe/decide/apply rounds have run.
func (c *Controller) Ticks() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticks
}

// Applies returns the total number of knob applications across groups.
func (c *Controller) Applies() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, st := range c.groups {
		n += st.applies
	}
	return n
}

// State renders the controller's per-group state as policy rows —
// current regimes, live knob values, and raw signals — for
// Snapshot.Policies and /debug/semlock. Registered automatically by
// Start; callable directly for tests.
func (c *Controller) State() []telemetry.PolicyStats {
	groups := c.cfg.Registry.Groups()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []telemetry.PolicyStats
	for _, g := range groups {
		if len(g.Sems) == 0 {
			continue
		}
		st := c.groups[groupKey{g.Group, g.Class}]
		if st == nil {
			continue
		}
		k := g.Sems[0].KnobsNow()
		regime := func(h hyst) string {
			if h.applied == "" {
				return "default"
			}
			return h.applied
		}
		row := telemetry.PolicyStats{
			Policy: fmt.Sprintf("controlplane/%s/%s", g.Group, g.Class),
			Kind:   "controller",
			State: fmt.Sprintf("spin=%s gate=%s summary=%s",
				regime(st.spinH), regime(st.gateH), regime(st.sumH)),
			Counters: map[string]uint64{
				"applies":       st.applies,
				"ticks":         c.ticks,
				"spin_min":      uint64(k.Spin.Min),
				"spin_max":      uint64(k.Spin.Max),
				"gate_window":   uint64(k.OptGate.Window),
				"gate_num":      uint64(k.OptGate.DisableNum),
				"gate_den":      uint64(k.OptGate.DisableDen),
				"gate_probe":    uint64(k.OptGate.ProbeInterval),
				"summary_scan":  boolCounter(k.SummaryScan),
				"wait_timing":   boolCounter(core.WaitTimingEnabled()),
				"gate_explores": st.explorations,
				"gate_starve":   uint64(st.gateStarve),
				"gate_acc":      st.optAccSamples,
			},
			Rates: map[string]float64{
				"conflict_rate":    st.sig.ConflictRate,
				"opt_fail_rate":    st.sig.OptFailRate,
				"opt_refusal_rate": st.sig.OptRefusalRate,
				"stall_rate":       st.sig.StallRate,
				"avg_wait_ns":      st.sig.AvgWaitNanos,
			},
		}
		out = append(out, row)
	}
	return out
}

func boolCounter(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
