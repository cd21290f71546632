// Resilient is the gossip router under the resilience layer: every
// section runs through a resilience.Policy — breaker-checked,
// bounded-patience acquisitions — and the read-only membership probe
// (LookupErrV) tries the optimistic envelope before its bounded
// pessimistic fallback.
//
// The sections keep the irrevocability discipline of Ours: every ADT
// mutation and every I/O happens only after the last acquisition of the
// section, so a bounded acquisition that stalls aborts the section with
// at most one benign partial effect — register's creation of an empty
// member map under the outer lock, which any later register completes
// idempotently.

package gossip

import (
	"sync/atomic"

	"repro/internal/resilience"
)

// Resilient wraps an Ours router with a resilience policy. The embedded
// router's blocking methods remain available; the overridden Router
// methods run policy-guarded and drop the operation (counted) when the
// policy gives up — the router analogue of a network server shedding a
// request instead of wedging a handler goroutine on it.
type Resilient struct {
	*Ours
	policy *resilience.Policy

	// Dropped counts operations abandoned after the policy gave up:
	// refused by the breaker, or stalled past the patience.
	Dropped atomic.Uint64
}

// NewResilient wraps o with policy p.
func NewResilient(o *Ours, p *resilience.Policy) *Resilient {
	return &Resilient{Ours: o, policy: p}
}

// Policy returns the wrapped policy (telemetry registration, tests).
func (r *Resilient) Policy() *resilience.Policy { return r.policy }

func (r *Resilient) drop(err error) {
	if err != nil {
		r.Dropped.Add(1)
	}
}

// Register routes through RegisterErr, dropping the operation if the
// policy gives up.
func (r *Resilient) Register(group, member string, conn *Conn) {
	r.drop(r.RegisterErr(group, member, conn))
}

// Unregister routes through UnregisterErr.
func (r *Resilient) Unregister(group, member string) {
	r.drop(r.UnregisterErr(group, member))
}

// Unicast routes through UnicastErr.
func (r *Resilient) Unicast(group, dst string, payload []byte) {
	r.drop(r.UnicastErr(group, dst, payload))
}

// Multicast routes through MulticastErr.
func (r *Resilient) Multicast(group string, payload []byte) {
	r.drop(r.MulticastErr(group, payload))
}

// RegisterErr is the register section under the policy: breaker check,
// then bounded acquisitions. The error is nil on success,
// ErrBreakerOpen when refused up front, or the *core.StallError of an
// acquisition that outlasted the patience. Like the other
// string-keyed forms it boxes its keys once and runs the pre-boxed
// section (resilient_boxed.go).
func (r *Resilient) RegisterErr(group, member string, conn *Conn) error {
	return r.RegisterErrV(group, member, conn)
}

// UnregisterErr is the unregister section under the policy.
func (r *Resilient) UnregisterErr(group, member string) error {
	return r.UnregisterErrV(group, member)
}

// UnicastErr is the unicast section under the policy.
func (r *Resilient) UnicastErr(group, dst string, payload []byte) error {
	return r.UnicastErrV(group, dst, payload)
}

// MulticastErr is the multicast section under the policy.
func (r *Resilient) MulticastErr(group string, payload []byte) error {
	return r.MulticastErrV(group, payload)
}
