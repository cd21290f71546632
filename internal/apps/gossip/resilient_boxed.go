// Boxed-key policied sections: the resilience-layer counterparts of
// boxed.go, used by the TCP server so a policied wire path stays
// allocation-free too, and by resilient.go's string-keyed forms, which
// box their keys and delegate here. The irrevocability discipline is
// the one resilient.go's header states.

package gossip

import (
	"repro/internal/adt"
	"repro/internal/core"
)

// RegisterErrV is RegisterErr with pre-boxed keys.
func (r *Resilient) RegisterErrV(group, member core.Value, conn *Conn) error {
	return r.policy.Run(func(tx *core.Txn) error {
		if err := r.policy.Acquire(tx, r.groupsSem, r.regGroupsRef.Mode1(group), r.groupsRank); err != nil {
			return err
		}
		var mm *memberMap
		if v := r.groups.Get(group); v != nil {
			mm = v.(*memberMap)
		} else {
			mm = &memberMap{m: adt.NewHashMap(), sem: core.NewSemantic(r.memTable)}
			r.groups.Put(group, mm)
		}
		if err := r.policy.Acquire(tx, mm.sem, r.regMem2(member, conn), r.memRank); err != nil {
			return err
		}
		r.fault("register")
		mm.m.Put(member, conn)
		return nil
	})
}

// UnregisterErrV is UnregisterErr with pre-boxed keys.
func (r *Resilient) UnregisterErrV(group, member core.Value) error {
	return r.policy.Run(func(tx *core.Txn) error {
		if err := r.policy.Acquire(tx, r.groupsSem, r.unregGRef.Mode1(group), r.groupsRank); err != nil {
			return err
		}
		if v := r.groups.Get(group); v != nil {
			mm := v.(*memberMap)
			if err := r.policy.Acquire(tx, mm.sem, r.unregMemRef.Mode1(member), r.memRank); err != nil {
				return err
			}
			r.fault("unregister")
			mm.m.Remove(member)
		}
		return nil
	})
}

// UnicastErrV is UnicastErr with pre-boxed keys. The I/O stays inside
// the section, after the last acquisition — an aborted attempt never
// half-sends.
func (r *Resilient) UnicastErrV(group, dst core.Value, payload []byte) error {
	return r.policy.Run(func(tx *core.Txn) error {
		if err := r.policy.Acquire(tx, r.groupsSem, r.uniGRef.Mode1(group), r.groupsRank); err != nil {
			return err
		}
		if v := r.groups.Get(group); v != nil {
			mm := v.(*memberMap)
			if err := r.policy.Acquire(tx, mm.sem, r.uniMemRef.Mode1(dst), r.memRank); err != nil {
				return err
			}
			r.fault("unicast")
			if c := mm.m.Get(dst); c != nil {
				c.(*Conn).Send(payload)
			}
		}
		return nil
	})
}

// MulticastErrV is MulticastErr with a pre-boxed key.
func (r *Resilient) MulticastErrV(group core.Value, payload []byte) error {
	return r.policy.Run(func(tx *core.Txn) error {
		if err := r.policy.Acquire(tx, r.groupsSem, r.mcGRef.Mode1(group), r.groupsRank); err != nil {
			return err
		}
		if v := r.groups.Get(group); v != nil {
			mm := v.(*memberMap)
			if err := r.policy.Acquire(tx, mm.sem, r.mcMemMode, r.memRank); err != nil {
				return err
			}
			r.fault("multicast")
			mm.m.RangeHeld(func(_, c core.Value) bool {
				c.(*Conn).Send(payload)
				return true
			})
		}
		return nil
	})
}

// LookupErrV is the membership probe under the policy with pre-boxed
// keys: the section first rides the optimistic envelope (lock-free, so
// it can neither stall nor trip the breaker's stall feed) and only the
// pessimistic fallback pays bounded acquisitions. The breaker still
// guards the whole section, so an open breaker sheds the read before
// it touches anything.
func (r *Resilient) LookupErrV(group, member core.Value) (bool, error) {
	var found bool
	err := r.policy.Run(func(tx *core.Txn) error {
		if tx.TryOptimistic(func(tx *core.Txn) bool {
			if !tx.Observe(r.groupsSem, r.uniGRef.Mode1(group), r.groupsRank) {
				return false
			}
			found = false
			if v := r.groups.Get(group); v != nil {
				mm := v.(*memberMap)
				if !tx.Observe(mm.sem, r.uniMemRef.Mode1(member), r.memRank) {
					return false
				}
				found = mm.m.Get(member) != nil
			}
			return true
		}) {
			return nil
		}
		if err := r.policy.Acquire(tx, r.groupsSem, r.uniGRef.Mode1(group), r.groupsRank); err != nil {
			return err
		}
		found = false
		if v := r.groups.Get(group); v != nil {
			mm := v.(*memberMap)
			if err := r.policy.Acquire(tx, mm.sem, r.uniMemRef.Mode1(member), r.memRank); err != nil {
				return err
			}
			found = mm.m.Get(member) != nil
		}
		return nil
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
		return r.unicastBatchLocked(tx, reqs, sc, r.policy.Patience())
	})
}
