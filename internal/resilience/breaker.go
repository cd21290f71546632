package resilience

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// BreakerState is the circuit breaker's state-machine position.
type BreakerState int32

const (
	// BreakerClosed: traffic flows; a stall that lifts the windowed
	// stall rate to the trip rate opens the breaker.
	BreakerClosed BreakerState = iota
	// BreakerOpen: traffic is refused with ErrBreakerOpen until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: up to Probes concurrent attempts are admitted as
	// probes; Probes consecutive successes close the breaker, any
	// failure reopens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes a circuit breaker. Zero-valued fields take the
// defaults documented per field.
type BreakerConfig struct {
	// Window / Buckets shape the sliding window the stall rate is
	// measured over. Defaults: 1s over 8 buckets.
	Window  time.Duration
	Buckets int
	// TripStallRate is the windowed stall rate (events/sec on the
	// unified stall feed) at or above which a stall opens the breaker.
	// <= 0 disables tripping.
	TripStallRate float64
	// Cooldown is how long an open breaker refuses before moving to
	// half-open. Default 50ms.
	Cooldown time.Duration
	// Probes is both the half-open concurrency cap and the consecutive
	// successes required to close. Default 3.
	Probes int
}

// Breaker is a circuit breaker over one policy's traffic, driven by the
// unified stall feed. The trip decision sits on the stall path
// (RecordStall), so admission in the closed state (Allow) is one atomic
// load; the returned done func reports the attempt's outcome so
// half-open probes can vote on recovery.
type Breaker struct {
	name string
	cfg  BreakerConfig

	stalls *telemetry.RateWindow

	mu       sync.Mutex
	state    BreakerState
	openedAt time.Time
	probing  int // probes in flight while half-open
	probeOK  int // consecutive probe successes this half-open episode

	statev   atomic.Int32 // mirror of state: Allow's closed-state check and State()
	tripped  atomic.Uint64
	rejected atomic.Uint64
	probes   atomic.Uint64
	reopened atomic.Uint64
	reclosed atomic.Uint64
}

// NewBreaker creates a closed breaker named name (the telemetry row
// key).
func NewBreaker(name string, cfg BreakerConfig) *Breaker {
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 8
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 50 * time.Millisecond
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 3
	}
	return &Breaker{
		name:   name,
		cfg:    cfg,
		stalls: telemetry.NewRateWindow(cfg.Window, cfg.Buckets),
	}
}

// RecordStall feeds one stall observation into the breaker's window and
// opens a closed breaker once the windowed rate reaches TripStallRate.
// Wired to the unified stall feed by the Manager, so timeout-path and
// watchdog stalls land in the same window by construction. Only a new
// stall can trip: the stalls behind an earlier trip stay in the window
// after the probes reclose the breaker, and re-reading them at
// admission would reopen it at once.
func (b *Breaker) RecordStall(core.StallEvent) {
	b.stalls.Add(1)
	if b.cfg.TripStallRate <= 0 || b.State() != BreakerClosed || b.stalls.Rate() < b.cfg.TripStallRate {
		return
	}
	b.mu.Lock()
	if b.state == BreakerClosed {
		b.openLocked()
		b.tripped.Add(1)
	}
	b.mu.Unlock()
}

// noopDone is handed to closed-state admissions: their outcome carries
// no state-machine weight, so sharing one func keeps Allow
// allocation-free on the common path.
var noopDone = func(bool) {}

// Allow asks the breaker to admit one attempt. On admission it returns
// a done func the caller MUST invoke with the attempt's outcome (true =
// success or non-stall failure, false = stall); on refusal it returns
// ErrBreakerOpen. Closed-state admissions cost one atomic load and get
// a shared no-op done; half-open admissions get a probe callback that
// votes on recovery.
func (b *Breaker) Allow() (done func(ok bool), err error) {
	if b.State() == BreakerClosed {
		return noopDone, nil
	}
	return b.allowSlow()
}

// allowSlow is Allow for a breaker that was open or half-open at the
// load: it re-reads the state under mu, since a probe may have closed it
// in between.
func (b *Breaker) allowSlow() (done func(ok bool), err error) {
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.mu.Unlock()
		return noopDone, nil
	case BreakerOpen:
		if time.Since(b.openedAt) < b.cfg.Cooldown {
			b.mu.Unlock()
			b.rejected.Add(1)
			return nil, fmt.Errorf("resilience: breaker %s cooling down: %w", b.name, ErrBreakerOpen)
		}
		b.setStateLocked(BreakerHalfOpen)
		b.probing, b.probeOK = 0, 0
		fallthrough
	default: // BreakerHalfOpen
		if b.probing >= b.cfg.Probes {
			b.mu.Unlock()
			b.rejected.Add(1)
			return nil, fmt.Errorf("resilience: breaker %s probe quota full: %w", b.name, ErrBreakerOpen)
		}
		b.probing++
		b.mu.Unlock()
		b.probes.Add(1)
		var once sync.Once
		return func(ok bool) { once.Do(func() { b.probeDone(ok) }) }, nil
	}
}

// openLocked moves the breaker to open and starts the cooldown. Callers
// hold mu.
func (b *Breaker) openLocked() {
	b.setStateLocked(BreakerOpen)
	b.openedAt = time.Now()
}

// probeDone records a half-open probe's outcome: any failure reopens
// immediately (restarting the cooldown), Probes consecutive successes
// close.
func (b *Breaker) probeDone(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probing > 0 {
		b.probing--
	}
	if b.state != BreakerHalfOpen {
		return // a concurrent probe already decided the episode
	}
	if !ok {
		b.openLocked()
		b.probeOK = 0
		b.reopened.Add(1)
		return
	}
	b.probeOK++
	if b.probeOK >= b.cfg.Probes {
		b.setStateLocked(BreakerClosed)
		b.reclosed.Add(1)
	}
}

func (b *Breaker) setStateLocked(s BreakerState) {
	b.state = s
	b.statev.Store(int32(s))
}

// State returns the current state without taking the lock.
func (b *Breaker) State() BreakerState { return BreakerState(b.statev.Load()) }

// Stats returns the breaker's telemetry row.
func (b *Breaker) Stats() telemetry.PolicyStats {
	return telemetry.PolicyStats{
		Policy: b.name,
		Kind:   "breaker",
		State:  b.State().String(),
		Counters: map[string]uint64{
			"rejected": b.rejected.Load(),
			"tripped":  b.tripped.Load(),
			"probes":   b.probes.Load(),
			"reopened": b.reopened.Load(),
			"reclosed": b.reclosed.Load(),
		},
		Rates: map[string]float64{"stall_rate": b.stalls.Rate()},
	}
}
