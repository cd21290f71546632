// Resilient is the gossip router under the resilience layer: every
// section runs Ours's one body for it through a resilience.Policy —
// breaker admission, then acquisitions bounded by the policy's
// patience — and the read-only membership probe (LookupErrV) tries the
// transaction-free optimistic read before its bounded pessimistic
// fallback. A stalled acquisition aborts the section with at most the
// one benign partial effect the bodies document (boxed.go).

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

// NewResilient wraps o with policy p. A nil p means no breaker and no
// bound: every section runs as core.Atomically with core.Forever
// patience, so the ErrV forms then behave as the blocking V forms and
// return nil.
func NewResilient(o *Ours, p *resilience.Policy) *Resilient {
	return &Resilient{Ours: o, policy: p}
}

func (r *Resilient) drop(err error) {
	if err != nil {
		r.Dropped.Add(1)
	}
}

// Register runs RegisterErrV, dropping the operation if the policy
// gives up. The string keys are boxed at the call, as in Ours.
func (r *Resilient) Register(group, member string, conn *Conn) {
	r.drop(r.RegisterErrV(group, member, conn))
}

// Unregister runs UnregisterErrV.
func (r *Resilient) Unregister(group, member string) {
	r.drop(r.UnregisterErrV(group, member))
}

// Unicast runs UnicastErrV.
func (r *Resilient) Unicast(group, dst string, payload []byte) {
	r.drop(r.UnicastErrV(group, dst, payload))
}

// Multicast runs MulticastErrV.
func (r *Resilient) Multicast(group string, payload []byte) {
	r.drop(r.MulticastErrV(group, payload))
}
