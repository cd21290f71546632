package core

import (
	"fmt"
	"math/bits"
	"strings"
	"time"
)

// This file is the liveness layer of the lock runtime: bounded
// acquisition (AcquireWithin) returning structured StallErrors, and
// ScanStalls, which samples instances for acquisitions blocked past a
// threshold. The protocol itself is deadlock-free under OS2PL
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
	return e
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
// Stall scan
// ---------------------------------------------------------------------

// WaiterInfo describes one acquisition ScanStalls found blocked past
// its threshold: the counter slots the waiter's conflict mask covers,
// how long it has been waiting, and — for transaction-driven
// acquisitions — the blocked transaction's acquisition log.
type WaiterInfo struct {
	Slots  []int         `json:"slots"`
	Waited time.Duration `json:"waited"`
	Log    []Acquisition `json:"log,omitempty"`
}

// StallReport is one ScanStalls observation of a mechanism with at least
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

// String renders the report for logs.
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
		fmt.Fprintf(&b, "; waiter on slots %v blocked %v", w.Slots, w.Waited.Round(time.Millisecond))
		if len(w.Log) > 0 {
			fmt.Fprintf(&b, " holding %d lock(s)", len(w.Log))
		}
	}
	return b.String()
}

// SetWaitTiming turns the accumulation of LockStats.WaitNanos on or
// off. The telemetry layer calls this when a metrics consumer attaches.
// Every waiter carries its park time whatever the switch says, so a
// waiter already parked when timing turns on settles with its whole
// measured wait (see mechV2.settleWait).
func SetWaitTiming(on bool) { waitSampling.Store(on) }

// ScanStalls samples each instance once and returns a report for every
// mechanism with at least one waiter blocked past threshold. Every
// waiter carries its park time, so a waiter that parked before the
// caller began scanning is reported with its whole measured wait. The
// cost is one mutex acquisition per mechanism; a caller that wants a
// watchdog calls it on a ticker over the instances it already holds.
func ScanStalls(threshold time.Duration, sems ...*Semantic) []StallReport {
	now := time.Now()
	var out []StallReport
	for _, s := range sems {
		for p := range s.mechs {
			if r, ok := s.sampleMech(p, now, threshold); ok {
				out = append(out, r)
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
		waited := now.Sub(w.since)
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
		wi := WaiterInfo{Slots: slots, Waited: waited}
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
