package core

import (
	"sync/atomic"
	"time"
)

// This file is the knob surface of the lock runtime: every tuning
// parameter the mechanisms used to hardcode as a package constant is
// now a per-mechanism (or per-instance) atomically-loaded setting, so
// the adaptive control plane (internal/controlplane) can retune a live
// runtime from telemetry without stopping it. The former constants
// remain as the defaults — a runtime nobody tunes behaves exactly as
// before, and the settings are read with plain atomic loads on paths
// that were already paying an atomic, so controller-off overhead is
// nil on the fast path.
//
// Torn-read discipline: each knob is either a single atomic cell or a
// set of values packed into one uint64 (the optimistic-gate quadruple),
// so a concurrent retune can never expose a half-updated parameter
// set. Knob changes are heuristics, not invariants — the mechanisms
// tolerate any interleaving of old and new values (a spin bound applies
// from the next contended acquisition, a gate window from the next
// close) — but a single read is always internally consistent.

// SpinBounds are the fast-path retry bounds of a mechanism: the
// adaptive per-mechanism retry count floats within [Min, Max]. The
// defaults reproduce the original constants (1 and 8).
type SpinBounds struct {
	Min int32 `json:"min"`
	Max int32 `json:"max"`
}

// DefaultSpinBounds are the bounds every mechanism starts with — the
// former minSpin/maxSpin constants.
func DefaultSpinBounds() SpinBounds { return SpinBounds{Min: minSpin, Max: maxSpin} }

// clamp normalizes a caller-supplied bounds pair into the representable
// range: 1 <= Min <= Max <= spinBoundCap.
func (b SpinBounds) clamp() SpinBounds {
	if b.Min < 1 {
		b.Min = 1
	}
	if b.Min > spinBoundCap {
		b.Min = spinBoundCap
	}
	if b.Max < b.Min {
		b.Max = b.Min
	}
	if b.Max > spinBoundCap {
		b.Max = spinBoundCap
	}
	return b
}

// spinBoundCap bounds how far a controller can raise the retry bound; a
// runaway tuner must not turn the fast path into an unbounded spin.
const spinBoundCap = 64

// SetSpinBounds retunes the fast-path retry bounds of every mechanism
// of the instance. Out-of-range values are clamped to [1, 64]. The
// bounds take effect on the next contended acquisition; the adaptive
// retry count itself keeps floating between them as before.
func (s *Semantic) SetSpinBounds(b SpinBounds) {
	b = b.clamp()
	for i := range s.mechs {
		s.mechs[i].spinMin.Store(b.Min)
		s.mechs[i].spinMax.Store(b.Max)
	}
}

// SpinBoundsNow returns the currently applied retry bounds (of the
// first mechanism; SetSpinBounds keeps all mechanisms in step).
func (s *Semantic) SpinBoundsNow() SpinBounds {
	if len(s.mechs) == 0 {
		return DefaultSpinBounds()
	}
	return SpinBounds{Min: s.mechs[0].spinMin.Load(), Max: s.mechs[0].spinMax.Load()}
}

// OptGateParams are the adaptive optimistic gate's tuning: validation
// outcomes are accounted in windows of Window attempts; a window whose
// failure share reaches DisableNum/DisableDen closes the optimistic
// path for ProbeInterval executions, after which a single probe
// decides whether to re-open. The defaults reproduce the original
// constants (64, 1/4, 8192).
type OptGateParams struct {
	Window        uint32 `json:"window"`
	DisableNum    uint32 `json:"disable_num"`
	DisableDen    uint32 `json:"disable_den"`
	ProbeInterval uint32 `json:"probe_interval"`
}

// DefaultOptGateParams returns the gate parameters every instance
// starts with.
func DefaultOptGateParams() OptGateParams {
	return OptGateParams{Window: optWindow, DisableNum: optDisableNum, DisableDen: optDisableDen, ProbeInterval: optProbeInterval}
}

// clamp normalizes gate parameters: a window of at least 2 (a 1-sample
// window closes on any failure and thrashes), a sane fraction, and a
// probe interval of at least the window (probing more often than the
// window closes would re-open the gate before it ever mattered).
func (p OptGateParams) clamp() OptGateParams {
	if p.Window < 2 {
		p.Window = 2
	}
	if p.Window > 1<<15 {
		p.Window = 1 << 15
	}
	if p.DisableDen == 0 {
		p.DisableDen = optDisableDen
	}
	if p.DisableNum == 0 || p.DisableNum > p.DisableDen {
		p.DisableNum = p.DisableDen // never disable below a full-failure window
	}
	if p.ProbeInterval < p.Window {
		p.ProbeInterval = p.Window
	}
	if p.ProbeInterval > 1<<30 {
		p.ProbeInterval = 1 << 30
	}
	return p
}

// packOptGate packs the quadruple into one uint64 so a retune is one
// atomic store and a hot-path read is one atomic load — no torn
// parameter sets, ever: window in bits 0–15, numerator 16–23,
// denominator 24–31, probe interval 32–63.
func packOptGate(p OptGateParams) uint64 {
	return uint64(p.Window)&0xffff |
		(uint64(p.DisableNum)&0xff)<<16 |
		(uint64(p.DisableDen)&0xff)<<24 |
		uint64(p.ProbeInterval)<<32
}

func unpackOptGate(v uint64) OptGateParams {
	return OptGateParams{
		Window:        uint32(v & 0xffff),
		DisableNum:    uint32(v >> 16 & 0xff),
		DisableDen:    uint32(v >> 24 & 0xff),
		ProbeInterval: uint32(v >> 32),
	}
}

// SetOptGateParams retunes the instance's adaptive optimistic gate.
// Out-of-range values are clamped (see OptGateParams.clamp). The new
// parameters govern the next window close and the next probe countdown;
// a window already accumulating finishes under whichever parameters its
// closer loads — both readings are internally consistent.
func (s *Semantic) SetOptGateParams(p OptGateParams) {
	s.optParams.Store(packOptGate(p.clamp()))
}

// OptGateParamsNow returns the currently applied gate parameters.
func (s *Semantic) OptGateParamsNow() OptGateParams {
	return unpackOptGate(s.optParams.Load())
}

// SetSummaryScan switches the instance's mechanisms between
// summary-guided conflict scans and exact per-slot scans. Only
// mechanisms that MAINTAIN summary counters (the static compile-time
// decision, ModeTable summary activation at wide conflict masks) can
// scan them — maintenance keeps the over-approximation invariant alive
// continuously, which is what makes this toggle safe at any moment; a
// mechanism without maintained summaries ignores on=true. It reports
// whether any mechanism actually changed state.
func (s *Semantic) SetSummaryScan(on bool) bool {
	changed := false
	for i := range s.mechs {
		m := &s.mechs[i]
		want := on && m.maintainSummary
		if m.scanSummary.Swap(want) != want {
			changed = true
		}
	}
	return changed
}

// SummaryScanNow reports whether any mechanism currently scans its
// summary counters.
func (s *Semantic) SummaryScanNow() bool {
	for i := range s.mechs {
		if s.mechs[i].scanSummary.Load() {
			return true
		}
	}
	return false
}

// SummaryMaintained reports whether any mechanism maintains summary
// counters at all — the static upper bound on what SetSummaryScan(true)
// can enable.
func (s *Semantic) SummaryMaintained() bool {
	for i := range s.mechs {
		if s.mechs[i].maintainSummary {
			return true
		}
	}
	return false
}

// Knobs is one consistent-per-field snapshot of an instance's tunable
// parameters, exported for /debug/semlock and the controller's own
// introspection.
type Knobs struct {
	Spin        SpinBounds    `json:"spin"`
	OptGate     OptGateParams `json:"opt_gate"`
	SummaryScan bool          `json:"summary_scan"`
}

// KnobsNow returns the instance's current knob values.
func (s *Semantic) KnobsNow() Knobs {
	return Knobs{Spin: s.SpinBoundsNow(), OptGate: s.OptGateParamsNow(), SummaryScan: s.SummaryScanNow()}
}

// Tuner is the retuning surface the control plane drives: everything a
// feedback controller may adjust on one instance at runtime.
// *Semantic implements it; tests substitute fakes.
type Tuner interface {
	SetSpinBounds(SpinBounds)
	SetOptGateParams(OptGateParams)
	SetSummaryScan(bool) bool
	KnobsNow() Knobs
}

var _ Tuner = (*Semantic)(nil)

// ---------------------------------------------------------------------
// Process-wide knobs
// ---------------------------------------------------------------------

// waitTimingAt records when global wait-time sampling last transitioned
// off→on (unix nanos; 0 = never enabled). Waiters already parked at
// that moment carry no timestamp of their own; their settle and the
// watchdog sampler use this as the same ">=" lower bound that
// Watchdog.Watch's watchedAt provides — a waiter demonstrably parked
// before the gate opened has waited at least since the gate opened.
var waitTimingAt atomic.Int64

// SetWaitTiming turns global wait-time sampling on or off. The
// telemetry layer calls this when a metrics consumer attaches, and the
// adaptive control plane toggles it from stall history; a
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

// WaitTimingEnabled reports whether global wait-time sampling is on.
func WaitTimingEnabled() bool { return waitSampling.Load() }
