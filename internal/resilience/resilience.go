// Package resilience is the policy layer between applications and the
// semantic-lock runtime: it turns the runtime's detection machinery —
// bounded acquisition with StallError, the stall Watchdog, the
// telemetry Registry — into action, so an injected slow hold degrades
// throughput instead of collapsing it.
//
// A Policy is two things:
//
//   - Patience: every lock acquisition inside a policied section is
//     bounded (Txn.LockWithin). A stalled acquisition aborts the
//     section, releases what it held, and returns the *core.StallError;
//     the caller drops the operation. Nothing is retried.
//
//   - Breaker (optional): a circuit breaker driven by the unified stall
//     feed (core.SetStallObserver → telemetry.StallFeed). A stall that
//     lifts the windowed stall rate to the trip rate opens it; Open →
//     HalfOpen after a cooldown; HalfOpen → Closed after consecutive
//     successful probes (→ Open again on any probe failure). While it
//     is open, sections are refused with ErrBreakerOpen before they
//     touch a lock, so callers stop queueing behind a wedged holder.
//     A closed breaker admits with one atomic load.
//
// Policies expose their counters through telemetry.PolicyStats
// (Registry.RegisterPolicySource), and a Manager fans the stall feed
// into the policies' breakers.
package resilience

import "errors"

// ErrBreakerOpen is returned when a circuit breaker refuses admission:
// the windowed stall rate tripped it and the cooldown (or probe quota)
// has not yet readmitted traffic.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")
