// Fixture for the retrypath analyzer: a bounded acquisition's error is
// the stall signal — discarding it races the section against the
// holders it failed to displace, and retrying it in an unbounded loop
// that does not go through Policy.Run turns one stall into a retry
// storm.
package tdata

import (
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
)

func discardedAsStatement(tx *core.Txn, sem *core.Semantic, m core.ModeID) {
	tx.LockWithin(sem, m, 0, time.Millisecond) // want "error discarded"
}

func discardedBatchVariant(tx *core.Txn, sem *core.Semantic, m core.ModeID) {
	tx.LockBatchWithin(time.Millisecond, core.BatchLock{Sem: sem, Mode: m}) // want "error discarded"
}

func discardedRawAcquire(sem *core.Semantic, m core.ModeID) {
	sem.AcquireWithin(m, time.Millisecond) // want "error discarded"
	sem.Release(m)                         // fixture: release to keep the snippet self-consistent
}

func blankAssigned(sem *core.Semantic, m core.ModeID) {
	_ = sem.AcquireWithin(m, time.Millisecond) // want "assigned to _"
}

func handledErrorIsClean(tx *core.Txn, sem *core.Semantic, m core.ModeID) error {
	if err := tx.LockWithin(sem, m, 0, time.Millisecond); err != nil {
		return err
	}
	defer tx.UnlockAll()
	return nil
}

func unboundedRetryStorm(sem *core.Semantic, m core.ModeID) {
	for { // want "unbounded for-loop retries"
		if err := sem.AcquireWithin(m, time.Millisecond); err == nil {
			sem.Release(m)
			return
		}
	}
}

func counterBoundedRetryIsClean(tx *core.Txn, sem *core.Semantic, m core.ModeID) bool {
	for i := 0; i < 5; i++ {
		if err := tx.LockWithin(sem, m, 0, time.Millisecond); err == nil {
			tx.UnlockAll()
			return true
		}
	}
	return false
}

func discardedPolicyAcquire(pol *resilience.Policy, tx *core.Txn, sem *core.Semantic, m core.ModeID) {
	pol.Acquire(tx, sem, m, 0) // want "error discarded"
	tx.UnlockAll()
}

func policyAcquireRetryStorm(pol *resilience.Policy, tx *core.Txn, sem *core.Semantic, m core.ModeID) {
	for { // want "unbounded for-loop retries"
		if err := pol.Acquire(tx, sem, m, 0); err == nil {
			tx.UnlockAll()
			return
		}
	}
}

func policyDelegationIsClean(pol *resilience.Policy, sem *core.Semantic, m core.ModeID) {
	for {
		err := pol.Run(func(tx *core.Txn) error {
			return pol.Acquire(tx, sem, m, 0)
		})
		if err == nil {
			return
		}
	}
}

func spawnedWorkerIsItsOwnLoop(sem *core.Semantic, m core.ModeID, done chan error) {
	for {
		go func() {
			done <- sem.AcquireWithin(m, time.Millisecond)
		}()
		if <-done == nil {
			sem.Release(m)
			return
		}
	}
}

func suppressedOnPurpose(tx *core.Txn, sem *core.Semantic, m core.ModeID) {
	tx.LockWithin(sem, m, 0, time.Millisecond) //semlockvet:ignore retrypath -- fixture: demonstrates the escape hatch
	tx.UnlockAll()
}
