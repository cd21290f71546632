// Package resilience is the policy layer between applications and the
// semantic-lock runtime: it turns the runtime's bounded acquisition
// (a *core.StallError when patience runs out) into action, so an
// injected slow hold degrades throughput instead of collapsing it.
//
// A Policy is two things:
//
//   - Patience: every lock acquisition inside a policied section is
//     bounded (Txn.LockWithin). A stalled acquisition aborts the
//     section, releases what it held, and returns the *core.StallError;
//     the caller drops the operation. Nothing is retried.
//
//   - Breaker (optional): a circuit breaker that counts the stalls its
//     own policy's sections return (Policy.Do) and nothing else — no
//     other policy's stalls and no watchdog report — so one stalled
//     section is one count and a hot class's breaker never refuses a
//     cold class. A stall that lifts the windowed stall rate to the
//     trip rate opens it; Open → HalfOpen after a cooldown; HalfOpen →
//     Closed after consecutive successful probes (→ Open again on any
//     probe failure). While it is open, sections are refused with
//     ErrBreakerOpen before they touch a lock, so callers stop queueing
//     behind a wedged holder. A closed breaker admits with one atomic
//     load.
//
// A policy needs no wiring beyond New: its breaker is fed by its own
// Do. Callers that publish its counters register Policy.Stats with a
// telemetry registry (Registry.RegisterPolicySource).
package resilience

import "errors"

// ErrBreakerOpen is returned when a circuit breaker refuses admission:
// the windowed stall rate tripped it and the cooldown (or probe quota)
// has not yet readmitted traffic.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")
