// Package chaos is the fault-injection harness of the transaction
// runtime: it plants panics, scheduler delays, and slow lock holders
// inside atomic sections (through the apps' FaultHook seams) and then
// proves full recovery — every slot counter back to zero, no published
// waiter-interest bits, no leaked waiters — via core's quiescence
// introspection. The injection schedule is deterministic (counter
// modulo), so a chaos run is reproducible and cheap enough for CI.
package chaos

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Config selects which faults an Injector plants and how often. Every
// schedule is a counter modulo over armed hook calls, checked in the
// order panic, slow hold, delay (at most one fault fires per call).
type Config struct {
	// PanicEvery panics at every Nth armed hook call (0 = never). The
	// panic carries a Fault value and unwinds through core.Atomically,
	// which releases the section's locks and re-panics a
	// *core.SectionPanic that Shield absorbs.
	PanicEvery int
	// SlowHoldEvery sleeps for SlowHold at every Nth armed hook call
	// (0 = never) — a slow holder, since hooks run with the section's
	// locks held.
	SlowHoldEvery int
	SlowHold      time.Duration
	// DelayEvery injects a scheduler delay at every Nth armed hook call
	// (0 = never): a pseudo-random sleep up to MaxDelay, or a bare
	// Gosched when MaxDelay is zero. Delays shake out interleavings the
	// scheduler would rarely produce on its own.
	DelayEvery int
	MaxDelay   time.Duration
}

// Fault is the panic value an Injector throws: which fault site fired
// and the hook-call ordinal. Shield recognizes it inside a
// *core.SectionPanic; anything else keeps unwinding.
type Fault struct {
	Site string
	N    uint64
}

func (f Fault) String() string {
	return fmt.Sprintf("chaos: injected fault #%d at %q", f.N, f.Site)
}

// Injector plants faults at hook call sites. Arm/Disarm bound the fault
// burst; a disarmed injector's Hook is a cheap counter increment, so
// the hook can stay wired during baseline and recovery phases.
type Injector struct {
	cfg   Config
	armed atomic.Bool
	n     atomic.Uint64

	panics atomic.Uint64
	slows  atomic.Uint64
	delays atomic.Uint64
}

// NewInjector creates a disarmed injector for the given schedule.
func NewInjector(cfg Config) *Injector { return &Injector{cfg: cfg} }

// Arm starts injecting faults; Disarm stops. Both are safe to call
// concurrently with running hooks.
func (i *Injector) Arm()    { i.armed.Store(true) }
func (i *Injector) Disarm() { i.armed.Store(false) }

// Counts reports how many faults of each kind have fired.
func (i *Injector) Counts() (panics, slowHolds, delays uint64) {
	return i.panics.Load(), i.slows.Load(), i.delays.Load()
}

// Hook is the injection point: wire it as the app's FaultHook so it
// runs inside atomic sections with locks held. At most one fault fires
// per call, selected deterministically from the call ordinal.
func (i *Injector) Hook(site string) {
	n := i.n.Add(1)
	if !i.armed.Load() {
		return
	}
	if c := i.cfg.PanicEvery; c > 0 && n%uint64(c) == 0 {
		i.panics.Add(1)
		panic(Fault{Site: site, N: n})
	}
	if c := i.cfg.SlowHoldEvery; c > 0 && n%uint64(c) == 0 {
		i.slows.Add(1)
		time.Sleep(i.cfg.SlowHold)
		return
	}
	if c := i.cfg.DelayEvery; c > 0 && n%uint64(c) == 0 {
		i.delays.Add(1)
		if i.cfg.MaxDelay <= 0 {
			runtime.Gosched()
			return
		}
		// Deterministic pseudo-random delay from the call ordinal
		// (Fibonacci hashing spreads consecutive ordinals).
		time.Sleep(time.Duration(n*2654435761) % i.cfg.MaxDelay)
	}
}

// Shield runs fn and absorbs an injected fault unwinding out of it: a
// *core.SectionPanic whose value is a Fault. It reports whether a fault
// was absorbed. Any other panic — a real bug — keeps unwinding.
func Shield(fn func()) (faulted bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		sp, ok := r.(*core.SectionPanic)
		if !ok {
			panic(r)
		}
		if _, ok := sp.Value.(Fault); !ok {
			panic(r)
		}
		faulted = true
	}()
	fn()
	return false
}
