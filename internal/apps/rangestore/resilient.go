// Resilient is the range store under the resilience layer: point writes
// and pair toggles run policy-guarded (bounded acquisitions, budgeted
// retries, gate/breaker admission), and the whole-store scan gets a
// hedged variant — the pessimistic shard-by-shard acquisition races the
// optimistic validated scan once it exceeds the hedge budget. The
// PutPair evenness oracle carries over unchanged: a hedged scan that
// returns an odd count has seen a torn pair write, whichever side won.

package rangestore

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/resilience"
)

// Resilient wraps a Store with a resilience policy.
type Resilient struct {
	*Store
	policy *resilience.Policy

	// Dropped counts operations abandoned after the policy gave up.
	Dropped atomic.Uint64
}

// NewResilient wraps s with policy p.
func NewResilient(s *Store, p *resilience.Policy) *Resilient {
	return &Resilient{Store: s, policy: p}
}

// Policy returns the wrapped policy.
func (r *Resilient) Policy() *resilience.Policy { return r.policy }

// PutErr is the point write under the policy.
func (r *Resilient) PutErr(k int, v core.Value) error {
	sh := r.shardOf(k)
	kv := core.Value(k)
	return r.policy.Run(func(tx *core.Txn) error {
		if err := r.policy.Acquire(tx, sh.sem, r.writeRef.Mode1(kv), 0); err != nil {
			return err
		}
		sh.m.Put(kv, v)
		return nil
	})
}

// PutPairErr is the pair toggle under the policy: the same fused
// LockBatch as PutPair, with the policy's patience on each shard's
// claim, and the mutations run only after both are held, so an aborted
// attempt toggles nothing.
func (r *Resilient) PutPairErr(k int) error {
	k2 := r.Partner(k)
	a, b := r.shardOf(k), r.shardOf(k2)
	kv, kv2 := core.Value(k), core.Value(k2)
	return r.policy.Run(func(tx *core.Txn) error {
		if err := r.policy.AcquireBatch(tx,
			core.BatchLock{Sem: a.sem, Mode: r.writeRef.Mode1(kv), Rank: 0},
			core.BatchLock{Sem: b.sem, Mode: r.writeRef.Mode1(kv2), Rank: 0},
		); err != nil {
			return err
		}
		togglePair(a, b, kv, kv2)
		return nil
	})
}

// GetHedged is the point read as a hedged read: pessimistic bounded
// acquisition of the key mode races the optimistic observation once the
// hedge budget elapses.
func (r *Resilient) GetHedged(k int) (core.Value, resilience.HedgeOutcome, error) {
	sh := r.shardOf(k)
	kv := core.Value(k)
	return resilience.HedgedRead(r.policy,
		func(tx *core.Txn, cancel <-chan struct{}) (core.Value, error) {
			if err := r.policy.AcquireCancel(tx, sh.sem, r.getRef.Mode1(kv), 0, cancel); err != nil {
				return nil, err
			}
			return sh.m.Get(kv), nil
		},
		func(tx *core.Txn) (core.Value, bool) {
			if !tx.Observe(sh.sem, r.getRef.Mode1(kv), 0) {
				return nil, false
			}
			return sh.m.Get(kv), true
		})
}

// ScanHedged is the whole-store count as a hedged read. The pessimistic
// side acquires every shard's values() mode shard-by-shard — ascending
// shard index, which is ascending instance id, the same (rank, id)
// order the batch claim uses — each with bounded patience and the
// shared cancel channel, so a scan stuck behind a slow writer can be
// abandoned mid-prologue with every already-held shard released by the
// section epilogue and the in-flight waiter withdrawn. The optimistic
// side is Scan's validated lock-free count.
func (r *Resilient) ScanHedged() (int, resilience.HedgeOutcome, error) {
	return resilience.HedgedRead(r.policy,
		func(tx *core.Txn, cancel <-chan struct{}) (int, error) {
			for i := range r.shards {
				if err := r.policy.AcquireCancel(tx, r.shards[i].sem, r.scanMode, 0, cancel); err != nil {
					return 0, err
				}
			}
			n := 0
			for i := range r.shards {
				n += r.shards[i].m.Size()
			}
			return n, nil
		},
		func(tx *core.Txn) (int, bool) {
			for i := range r.shards {
				if !tx.Observe(r.shards[i].sem, r.scanMode, 0) {
					return 0, false
				}
			}
			n := 0
			for i := range r.shards {
				n += r.shards[i].m.Size()
			}
			return n, true
		})
}
