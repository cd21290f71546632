package core

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the liveness layer of the lock runtime: bounded
// acquisition (AcquireWithin) returning structured StallErrors, and the
// Watchdog that samples registered instances for acquisitions blocked
// past a threshold. The protocol itself is deadlock-free under OS2PL
// (§3.3); these tools exist for the failure modes the protocol cannot
// rule out — a holder that stalls, loops, or (before panic-safe sections
// existed) leaked its locks entirely.

// HolderSlot identifies one lock-mode counter slot that was holding a
// stalled acquisition back: the mechanism (partition) index, the local
// counter slot, the canonical mode name occupying that slot, and how
// many holders were counted beyond the acquirer's own claim.
type HolderSlot struct {
	Mechanism int    `json:"mechanism"`
	Slot      int    `json:"slot"`
	Mode      string `json:"mode"`
	Count     int32  `json:"count"`
}

// StallError reports a bounded acquisition that exhausted its patience.
// It always names at least one holder slot: the timeout path re-scans
// under the mechanism's lock at the moment of giving up, so the holders
// listed were genuinely present then — never a stale observation.
type StallError struct {
	Instance uint64        // unique id of the Semantic instance (the paper's unique(x))
	Class    string        // ADT class name of the instance's spec
	Mode     string        // the mode whose acquisition stalled ("a+b" for a batched group)
	Waited   time.Duration // how long the acquirer waited before giving up
	Holders  []HolderSlot  // conflicting slots with holders at timeout
	Log      []Acquisition // the blocked transaction's acquisition log, when known
}

func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: acquisition of mode %s on %s instance %d stalled for %v; held by",
		e.Mode, e.Class, e.Instance, e.Waited.Round(time.Millisecond))
	for i, h := range e.Holders {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " %s(x%d)", h.Mode, h.Count)
	}
	if len(e.Log) > 0 {
		fmt.Fprintf(&b, "; acquirer already held %d lock(s)", len(e.Log))
	}
	return b.String()
}

// AcquireWithin is Acquire with bounded patience: it blocks at most
// patience waiting for mode m and returns nil once the mode is held, or
// a *StallError naming the conflicting holder slots if the wait timed
// out. A timed-out call leaves no trace in the mechanism — the waiter is
// deregistered, its transient claim retreated, and any wake token a
// racing release donated is forwarded to the remaining waiters.
// Callers use Txn.LockWithin rather than calling this directly.
//
// Bounded and blocking acquisitions share one core (mechV2.acquireSlow),
// so a bounded call whose first attempt fails takes the same adaptive
// lock-free retry ladder a blocking one does before it parks; earlier
// versions parked after a single attempt. The guarantee that a reported
// stall is a conflict observed by a final claim-and-scan under the
// mechanism's lock at the moment of giving up is unchanged.
func (s *Semantic) AcquireWithin(m ModeID, patience time.Duration) error {
	return s.acquireWithin(m, patience, nil)
}

// stallError assembles the structured report for a timed-out
// acquisition of ms (one mode, or the modes of one batched mechanism
// group), resolving local counter slots back to mode names.
func (s *Semantic) stallError(ms []ModeID, p int, holders []stallSlot, waited time.Duration, log []Acquisition) error {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = fmt.Sprint(s.table.Mode(m))
	}
	e := &StallError{
		Instance: s.id,
		Class:    s.table.Spec.ADT,
		Mode:     strings.Join(names, "+"),
		Waited:   waited,
	}
	for _, h := range holders {
		e.Holders = append(e.Holders, HolderSlot{
			Mechanism: p,
			Slot:      int(h.slot),
			Mode:      s.table.modeNameOfSlot(p, int(h.slot)),
			Count:     h.count,
		})
	}
	if len(log) > 0 {
		e.Log = append([]Acquisition(nil), log...)
	}
	emitStall(StallEvent{
		Instance:  s.id,
		Class:     e.Class,
		Mechanism: p,
		Source:    StallTimeout,
		Waited:    waited,
		Waiters:   1,
	})
	return e
}

// ---------------------------------------------------------------------
// Unified stall observation
// ---------------------------------------------------------------------

// StallSource names which clock produced a StallEvent: the bounded
// acquisition that self-clocked its own exhausted patience, or the
// watchdog sampler that found waiters blocked past its threshold.
type StallSource uint8

const (
	// StallTimeout: an AcquireWithin/LockWithin/LockBatchWithin call gave
	// up. Exactly one event per timed-out acquisition (per stalled
	// mechanism group for a batch); Waited is the patience actually
	// spent, Waiters is 1.
	StallTimeout StallSource = iota
	// StallWatchdog: a Watchdog scan found a mechanism with waiters
	// blocked past the threshold. One event per stalled mechanism per
	// scan — repeated scans over the same stuck waiter re-emit, so
	// watchdog events measure sustained pressure, not distinct failures.
	// Waited is the longest observed wait, Waiters the over-threshold
	// waiter count.
	StallWatchdog
)

func (s StallSource) String() string {
	if s == StallWatchdog {
		return "watchdog"
	}
	return "timeout"
}

// StallEvent is one stall observation, from either clock. Both the
// timeout path and the watchdog funnel through the same observer so a
// consumer (the resilience layer's breaker windows) sees one coherent
// event stream instead of two contradictory counts.
type StallEvent struct {
	Instance  uint64
	Class     string
	Mechanism int
	Source    StallSource
	Waited    time.Duration
	Waiters   int
}

// stallObserver holds the process-wide observer. An atomic pointer (not
// a mutex) keeps the nil-observer check on the stall path to one load.
var stallObserver atomic.Pointer[func(StallEvent)]

// SetStallObserver installs fn as the process-wide stall observer; both
// bounded-acquisition timeouts and watchdog threshold crossings are
// delivered to it. fn is called synchronously from the stalling
// goroutine or the watchdog sampler — keep it brief and never acquire
// semantic locks inside it. Passing nil uninstalls. Returns the
// previous observer so tests and layered consumers can chain or
// restore.
func SetStallObserver(fn func(StallEvent)) (prev func(StallEvent)) {
	var p *func(StallEvent)
	if fn != nil {
		p = &fn
	}
	if old := stallObserver.Swap(p); old != nil {
		return *old
	}
	return nil
}

func emitStall(ev StallEvent) {
	if fn := stallObserver.Load(); fn != nil {
		(*fn)(ev)
	}
}

// modeNameOfSlot resolves a mechanism-local counter slot back to the
// name of the canonical mode occupying it (merged modes share a slot;
// the first is reported). Diagnostics only — a linear scan over modes.
func (t *ModeTable) modeNameOfSlot(p, slot int) string {
	for i := range t.modes {
		if t.part[i] == p && t.localIdx[i] == slot {
			return fmt.Sprint(t.modes[i])
		}
	}
	return fmt.Sprintf("slot%d", slot)
}

// ---------------------------------------------------------------------
// Quiescence introspection
// ---------------------------------------------------------------------

// OutstandingHolds returns the total holder count currently recorded
// across the instance's mechanisms. Zero on a quiescent instance; a
// persistent nonzero value after all transactions have drained means
// locks leaked.
func (s *Semantic) OutstandingHolds() int64 {
	var n int64
	for i := range s.mechs {
		for j := range s.mechs[i].counts {
			n += int64(s.mechs[i].counts[j].Load())
		}
	}
	return n
}

// CheckQuiesced verifies the instance is fully idle: every holder
// counter and summary counter zero, no published waiter-interest bits,
// and no registered waiters in any mechanism. The chaos harness calls
// this after a fault burst drains to prove nothing leaked.
func (s *Semantic) CheckQuiesced() error {
	for p := range s.mechs {
		m := &s.mechs[p]
		m.mu.Lock()
		nWaiters := len(m.waiters)
		m.mu.Unlock()
		if nWaiters != 0 {
			return fmt.Errorf("core: instance %d mech %d: %d waiter(s) still registered", s.id, p, nWaiters)
		}
		for j := range m.counts {
			if c := m.counts[j].Load(); c != 0 {
				return fmt.Errorf("core: instance %d mech %d slot %d (%s): count %d, want 0",
					s.id, p, j, s.table.modeNameOfSlot(p, j), c)
			}
		}
		for j := range m.summary {
			if c := m.summary[j].Load(); c != 0 {
				return fmt.Errorf("core: instance %d mech %d word %d: summary %d, want 0", s.id, p, j, c)
			}
		}
		for j := range m.waitMask {
			if bits := m.waitMask[j].Load(); bits != 0 {
				return fmt.Errorf("core: instance %d mech %d word %d: waitMask %#x, want 0", s.id, p, j, bits)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Stall watchdog
// ---------------------------------------------------------------------

// WaiterInfo describes one acquisition the watchdog found blocked past
// its threshold: the counter slots the waiter's conflict mask covers,
// how long it has been waiting, and — for transaction-driven
// acquisitions — the blocked transaction's acquisition log.
type WaiterInfo struct {
	Slots  []int         `json:"slots"`
	Waited time.Duration `json:"waited"`
	// Sampled reports whether Waited is a measured duration. Waiters
	// that parked before wait timing was available on their mechanism
	// carry no timestamp; for those Waited is a lower bound — time since
	// a sampling gate opened (the instance becoming watched, or a
	// SetWaitTiming enable, whichever came first) — and Sampled is false.
	Sampled bool          `json:"sampled"`
	Log     []Acquisition `json:"log,omitempty"`
}

// StallReport is one watchdog observation of a mechanism with at least
// one waiter blocked past the threshold: the instance, the mechanism,
// the published waiter-interest words, the slots currently holding
// counts (with mode names), and every over-threshold waiter.
type StallReport struct {
	Instance  uint64       `json:"instance"`
	Class     string       `json:"class"`
	Mechanism int          `json:"mechanism"`
	WaitMask  []uint64     `json:"waitMask"`
	Holders   []HolderSlot `json:"holders"`
	Waiters   []WaiterInfo `json:"waiters"`
}

// String renders the report for logs. Lower-bound waits of pre-Watch
// waiters (Sampled false) are prefixed "≥" so an unsampled bound is
// never mistaken for a measured duration.
func (r StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: stall on %s instance %d mech %d:", r.Class, r.Instance, r.Mechanism)
	for i, h := range r.Holders {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " held %s(x%d)", h.Mode, h.Count)
	}
	for _, w := range r.Waiters {
		bound := ""
		if !w.Sampled {
			bound = "≥"
		}
		fmt.Fprintf(&b, "; waiter on slots %v blocked %s%v", w.Slots, bound, w.Waited.Round(time.Millisecond))
		if len(w.Log) > 0 {
			fmt.Fprintf(&b, " holding %d lock(s)", len(w.Log))
		}
	}
	return b.String()
}

// WatchdogConfig tunes a Watchdog. The zero value is not useful; use
// sensible thresholds (e.g. 100ms/25ms in tests, seconds in production).
type WatchdogConfig struct {
	// Threshold is the wait duration past which a blocked acquisition
	// counts as stalled.
	Threshold time.Duration
	// Interval is the sampling period of the background sampler
	// (Start/Stop). Scan may also be called synchronously at any time.
	Interval time.Duration
	// OnStall receives one report per stalled mechanism per sample. It is
	// called from the sampler goroutine; keep it brief.
	OnStall func(StallReport)
}

// waitTimingAt records when global wait-time sampling last transitioned
// off→on (unix nanos; 0 = never enabled). Waiters already parked at
// that moment carry no timestamp of their own; their settle and the
// watchdog sampler use this as the same ">=" lower bound that
// Watchdog.Watch's watchedAt provides — a waiter demonstrably parked
// before the gate opened has waited at least since the gate opened.
var waitTimingAt atomic.Int64

// SetWaitTiming turns global wait-time sampling on or off. The
// telemetry layer calls this when a metrics consumer attaches; a
// Watchdog.Watch enables sampling per instance regardless of this
// switch. Waiters already parked when sampling turns on have no
// park-time timestamp; they settle with a lower bound measured from the
// enable instant (see mechV2.settleWait), so a mid-run enable feeds the
// telemetry consumers conservative nonzero samples instead of zeros.
func SetWaitTiming(on bool) {
	if on {
		if !waitSampling.Swap(true) {
			waitTimingAt.Store(time.Now().UnixNano())
		}
		return
	}
	waitSampling.Store(false)
}

// Watchdog samples registered Semantic instances for acquisitions
// blocked past a threshold. One watchdog typically covers every
// instance of a ModeTable (register instances at creation); sampling
// cost is one mutex acquisition per mechanism per interval, so it is
// cheap enough to leave running in production.
type Watchdog struct {
	cfg WatchdogConfig

	mu   sync.Mutex
	sems []*Semantic

	stop chan struct{}
	done chan struct{}
}

// NewWatchdog creates a watchdog with the given configuration.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Threshold <= 0 {
		cfg.Threshold = time.Second
	}
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.Threshold / 2
	}
	return &Watchdog{cfg: cfg}
}

// Watch registers an instance for sampling. It also marks the
// instance's mechanisms as watched, which turns on the per-waiter wait
// timestamps the sampler reads — unwatched instances skip that clock
// call on the slow path entirely. Waiters already parked at the moment
// of registration carry no timestamp; the sampler still reports them,
// with their wait lower-bounded from the moment of registration
// (WaiterInfo.Sampled false), so a stuck pre-Watch waiter cannot stay
// invisible forever.
func (d *Watchdog) Watch(s *Semantic) {
	now := time.Now().UnixNano()
	for p := range s.mechs {
		m := &s.mechs[p]
		if !m.watched.Swap(true) {
			m.watchedAt.CompareAndSwap(0, now)
		}
	}
	d.mu.Lock()
	d.sems = append(d.sems, s)
	d.mu.Unlock()
}

// Scan samples every watched instance once, returning a report for each
// mechanism that has at least one waiter blocked past the threshold.
// Each report is also delivered to the process-wide stall observer
// (SetStallObserver) as a StallWatchdog event, the same stream the
// timeout path feeds — one clock, not two.
func (d *Watchdog) Scan() []StallReport {
	d.mu.Lock()
	sems := append([]*Semantic(nil), d.sems...)
	d.mu.Unlock()

	now := time.Now()
	var out []StallReport
	for _, s := range sems {
		for p := range s.mechs {
			if r, ok := s.sampleMech(p, now, d.cfg.Threshold); ok {
				out = append(out, r)
				var longest time.Duration
				for _, w := range r.Waiters {
					if w.Waited > longest {
						longest = w.Waited
					}
				}
				emitStall(StallEvent{
					Instance:  r.Instance,
					Class:     r.Class,
					Mechanism: r.Mechanism,
					Source:    StallWatchdog,
					Waited:    longest,
					Waiters:   len(r.Waiters),
				})
			}
		}
	}
	return out
}

// sampleMech inspects one mechanism under its lock and assembles a
// report if any waiter is past the threshold. Holding mu freezes the
// registry; counter loads are racy by nature (holders come and go) but
// each load is atomic, so the snapshot is per-slot consistent.
func (s *Semantic) sampleMech(p int, now time.Time, threshold time.Duration) (StallReport, bool) {
	m := &s.mechs[p]
	m.mu.Lock()
	defer m.mu.Unlock()

	var waiters []WaiterInfo
	for _, w := range m.waiters {
		var waited time.Duration
		sampled := !w.since.IsZero()
		if sampled {
			waited = now.Sub(w.since)
		} else if at := m.waitBoundAt(); at != 0 {
			// Parked before timing was available on this mechanism; its
			// true wait start is unknown. Lower-bound the wait from the
			// earliest open sampling gate — the instance becoming
			// watched or a SetWaitTiming enable — so the bound keeps
			// growing and a permanently stuck pre-gate waiter crosses
			// the threshold and gets reported instead of being skipped
			// forever.
			waited = now.Sub(time.Unix(0, at))
		} else {
			continue // never watched: no wait bound at all
		}
		if waited < threshold {
			continue
		}
		var slots []int
		for i := range w.mask {
			base := int(w.mask[i].w) << 6
			bs := w.mask[i].bits
			for bs != 0 {
				slots = append(slots, base+bits.TrailingZeros64(bs))
				bs &= bs - 1
			}
		}
		wi := WaiterInfo{Slots: slots, Waited: waited, Sampled: sampled}
		if len(w.log) > 0 {
			wi.Log = append([]Acquisition(nil), w.log...)
		}
		waiters = append(waiters, wi)
	}
	if len(waiters) == 0 {
		return StallReport{}, false
	}

	r := StallReport{
		Instance:  s.id,
		Class:     s.table.Spec.ADT,
		Mechanism: p,
		Waiters:   waiters,
	}
	for j := range m.waitMask {
		r.WaitMask = append(r.WaitMask, m.waitMask[j].Load())
	}
	for j := range m.counts {
		if c := m.counts[j].Load(); c > 0 {
			r.Holders = append(r.Holders, HolderSlot{
				Mechanism: p,
				Slot:      j,
				Mode:      s.table.modeNameOfSlot(p, j),
				Count:     c,
			})
		}
	}
	return r, true
}

// Start launches the background sampler; reports go to cfg.OnStall.
func (d *Watchdog) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stop != nil {
		return // already running
	}
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	go d.run(d.stop, d.done)
}

func (d *Watchdog) run(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(d.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if d.cfg.OnStall == nil {
				continue
			}
			for _, r := range d.Scan() {
				d.cfg.OnStall(r)
			}
		}
	}
}

// Stop halts the background sampler and waits for it to exit. Safe to
// call when the sampler was never started.
func (d *Watchdog) Stop() {
	d.mu.Lock()
	stop, done := d.stop, d.done
	d.stop, d.done = nil, nil
	d.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
