// Boxed-key policied sections: the section bodies of boxed.go run under
// the policy — breaker admission by Policy.Run, the policy's patience
// on every acquisition. The TCP server calls these forms with or
// without a policy, so the served path is allocation-free either way;
// callers holding strings pass them in, boxed at the call.

package gossip

import "repro/internal/core"

// RegisterErrV is the register section under the policy. The error is
// nil on success, ErrBreakerOpen when refused up front, or the
// *core.StallError of an acquisition that outlasted the patience.
func (r *Resilient) RegisterErrV(group, member core.Value, conn *Conn) error {
	return r.policy.Run(func(tx *core.Txn) error {
		return r.register(tx, group, member, conn, r.policy.Patience())
	})
}

// UnregisterErrV is the unregister section under the policy.
func (r *Resilient) UnregisterErrV(group, member core.Value) error {
	return r.policy.Run(func(tx *core.Txn) error {
		return r.unregister(tx, group, member, r.policy.Patience())
	})
}

// UnicastErrV is the unicast section under the policy. The I/O stays
// inside the section, after the last acquisition — an aborted attempt
// never half-sends.
func (r *Resilient) UnicastErrV(group, dst core.Value, payload []byte) error {
	return r.policy.Run(func(tx *core.Txn) error {
		return r.unicast(tx, group, dst, payload, r.policy.Patience())
	})
}

// MulticastErrV is the multicast section under the policy.
func (r *Resilient) MulticastErrV(group core.Value, payload []byte) error {
	return r.policy.Run(func(tx *core.Txn) error {
		return r.multicast(tx, group, payload, r.policy.Patience())
	})
}

// LookupErrV is the membership probe under the policy: inside the
// breaker's admission (Policy.Do), it runs LookupV's transaction-free
// optimistic read (it can neither stall nor feed the breaker) and opens
// an atomic section only for the pessimistic fallback, whose
// acquisitions are bounded by the patience. The breaker guards the
// whole probe, so an open breaker sheds the read before it touches
// anything; without a policy the optimistic read pays no transaction.
func (r *Resilient) LookupErrV(group, member core.Value) (bool, error) {
	var found bool
	err := r.policy.Do(func() error {
		var ok bool
		if found, ok = r.lookupOptimisticV(group, member); ok {
			return nil
		}
		var err error
		core.Atomically(func(tx *core.Txn) {
			found, err = r.lookup(tx, group, member, r.policy.Patience())
		})
		return err
	})
	return found, err
}

// UnicastBatchErrV is UnicastBatchV under the policy: the breaker
// decides admission for the whole batch (one refusal answers the run of
// frames before any lock is touched), and the fused LockBatch prologues
// then wait at most the policy's patience per instance group. A stalled
// batch sends nothing and returns the *core.StallError.
func (r *Resilient) UnicastBatchErrV(reqs []SendReq, sc *BatchScratch) error {
	if len(reqs) == 1 {
		return r.UnicastErrV(reqs[0].Group, reqs[0].Dst, reqs[0].Payload)
	}
	return r.policy.Run(func(tx *core.Txn) error {
		return r.unicastBatch(tx, reqs, sc, r.policy.Patience())
	})
}
