// Package resilience is the policy layer between applications and the
// semantic-lock runtime: it turns the detection machinery PRs 3 and 5
// built — bounded acquisition with StallError, the stall Watchdog, the
// telemetry Registry — into action, so an injected slow hold degrades
// throughput instead of collapsing it.
//
// Three cooperating pieces, each independently optional per Policy:
//
//   - Budget: a token-bucket retry budget. Retries after a StallError
//     are bounded globally per policy, not per caller, so a contention
//     storm cannot multiply itself through synchronized re-attempts;
//     attempts that do retry back off with full jitter.
//
//   - Breaker: a circuit breaker driven by the unified stall feed
//     (core.SetStallObserver → telemetry.StallFeed) and the windowed
//     outstanding-waiter gauge. Closed → Open on windowed stall rate or
//     waiter pressure, Open → HalfOpen after a cooldown, HalfOpen →
//     Closed after consecutive successful probes (→ Open again on any
//     probe failure).
//
//   - Gate: admission control. Under waiter pressure new transactions
//     queue in a bounded FIFO or are shed with ErrShed. Shedding
//     happens BEFORE acquisition: a shed transaction holds nothing, so
//     it cannot contribute to deadlock pressure, priority inversion, or
//     the very waiter population that triggered the pressure — the gate
//     protects the sections already in flight.
//
// Policies expose every counter through telemetry.PolicyStats
// (Registry.RegisterPolicySource), and a Manager runs the control loop
// that feeds waiter telemetry into breakers and gate pressure.
package resilience

import (
	"errors"
	"math/rand"
	"time"
)

// ErrShed is returned by the admission gate when a transaction is
// refused before acquisition: the bounded queue was full, or the queue
// wait timed out. Check with errors.Is; a shed transaction held
// nothing, so the caller may simply drop the work or retry later.
var ErrShed = errors.New("resilience: shed by admission control")

// ErrBreakerOpen is returned when a circuit breaker refuses admission:
// the windowed stall rate or waiter pressure tripped it and the
// cooldown (or probe quota) has not yet readmitted traffic.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// ErrBudgetExhausted is returned when a stalled attempt wanted to retry
// but the policy's token-bucket budget was empty. The underlying
// StallError is joined into the chain, so errors.As still recovers it.
var ErrBudgetExhausted = errors.New("resilience: retry budget exhausted")

// Backoff shapes the jittered delay between budgeted retries: attempt n
// sleeps a uniformly random duration in (0, min(Max, Base·2ⁿ)]. Full
// jitter rather than equal jitter — the point of the delay is to
// decorrelate retriers that stalled on the same holder, and full jitter
// decorrelates hardest.
type Backoff struct {
	Base time.Duration
	Max  time.Duration
}

func (b Backoff) sleep(attempt int) {
	base := b.Base
	if base <= 0 {
		base = 100 * time.Microsecond
	}
	max := b.Max
	if max <= 0 {
		max = 5 * time.Millisecond
	}
	d := base << uint(attempt)
	if d <= 0 || d > max {
		d = max
	}
	time.Sleep(time.Duration(rand.Int63n(int64(d))) + 1)
}
