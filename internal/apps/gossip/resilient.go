// Resilient is the gossip router under the resilience layer: every
// section runs through a resilience.Policy — admission-gated, breaker-
// checked, bounded-patience acquisitions with budgeted retries — and the
// read-only membership probe gets a hedged variant that races the
// pessimistic acquisition against the optimistic envelope when the
// pessimistic side exceeds its latency budget.
//
// The sections keep the irrevocability discipline of Ours: every ADT
// mutation and every I/O happens only after the last acquisition of the
// section, so a bounded acquisition that stalls aborts the attempt with
// at most one benign partial effect — register's creation of an empty
// member map under the outer lock, which a retry (or any later
// register) completes idempotently.

package gossip

import (
	"sync/atomic"

	"repro/internal/core"
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
	// shed by the gate, refused by the breaker, or stalled past the
	// retry budget.
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

// RegisterErr is the register section under the policy: gate admission,
// breaker check, bounded acquisitions, budgeted retries. The error is
// nil on success, ErrShed/ErrBreakerOpen when refused up front, or the
// final attempt's StallError (wrapped in ErrBudgetExhausted when the
// retry budget bound) when every attempt stalled. Like the other
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

// LookupHedged is the membership probe as a hedged read: the
// pessimistic acquisition runs with the policy's patience and a cancel
// channel; if it exceeds the hedge budget, the optimistic envelope —
// observing exactly the modes the pessimistic side locks — races it,
// and the loser is cancelled (the pessimistic side withdraws its
// waiter cleanly, holding nothing). Both sides compute the same
// membership answer, so whichever commits is a correct serializable
// read.
func (r *Resilient) LookupHedged(group, member string) (bool, resilience.HedgeOutcome, error) {
	g, m := core.Value(group), core.Value(member)
	return resilience.HedgedRead(r.policy,
		func(tx *core.Txn, cancel <-chan struct{}) (bool, error) {
			if err := r.policy.AcquireCancel(tx, r.groupsSem, r.uniGRef.Mode1(g), r.groupsRank, cancel); err != nil {
				return false, err
			}
			if v := r.groups.Get(g); v != nil {
				mm := v.(*memberMap)
				if err := r.policy.AcquireCancel(tx, mm.sem, r.uniMemRef.Mode1(m), r.memRank, cancel); err != nil {
					return false, err
				}
				return mm.m.Get(m) != nil, nil
			}
			return false, nil
		},
		func(tx *core.Txn) (bool, bool) {
			if !tx.Observe(r.groupsSem, r.uniGRef.Mode1(g), r.groupsRank) {
				return false, false
			}
			if v := r.groups.Get(g); v != nil {
				mm := v.(*memberMap)
				if !tx.Observe(mm.sem, r.uniMemRef.Mode1(m), r.memRank) {
					return false, false
				}
				return mm.m.Get(m) != nil, true
			}
			return false, true
		})
}
