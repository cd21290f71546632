// Resilient is the range store under the resilience layer: point writes
// and pair toggles run policy-guarded (bounded acquisitions, budgeted
// retries, gate/breaker admission); reads are the Store's own. The
// PutPair evenness oracle carries over unchanged: a scan that returns
// an odd count has seen a torn pair write.

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
