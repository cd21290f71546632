// Fixture for the heldwalk analyzer: adt *Held walks with and without a
// lock acquisition before them in their section.
package tdata

import (
	"sync"

	"repro/internal/adt"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/resilience"
)

type walked struct {
	m    *adt.HashMap
	sem  *core.Semantic
	mode core.ModeID
}

func visit(_, _ core.Value) bool { return true }

func heldUnderMode(w *walked) {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(w.sem, w.mode, 0)
		w.m.RangeHeld(visit)
	})
}

func heldUnderBatch(w *walked) {
	core.Atomically(func(tx *core.Txn) {
		tx.LockBatch(core.BatchLock{Sem: w.sem, Mode: w.mode})
		if w.m.Size() > 0 {
			w.m.RangeHeld(func(_, _ core.Value) bool { return true })
		}
	})
}

func heldUnderPolicy(w *walked, p *resilience.Policy) error {
	return p.Run(func(tx *core.Txn) error {
		if err := tx.LockWithin(w.sem, w.mode, 0, p.Patience()); err != nil {
			return err
		}
		w.m.RangeHeld(visit)
		return nil
	})
}

// A helper that is handed the section's transaction is a section body.
func heldInHelper(tx *core.Txn, w *walked) {
	tx.Lock(w.sem, w.mode, 0)
	w.m.RangeHeld(visit)
}

func heldUnderBaselineLocks(w *walked, g *cc.GlobalLock, l *cc.InstanceLock, rw *sync.RWMutex) {
	g.Enter()
	w.m.RangeHeld(visit)
	g.Exit()

	var tx cc.TwoPL
	tx.Lock(l)
	w.m.RangeHeld(visit)
	tx.UnlockAll()

	rw.RLock()
	w.m.RangeHeld(visit)
	rw.RUnlock()
}

func noAcquisition(w *walked) {
	core.Atomically(func(tx *core.Txn) {
		w.m.RangeHeld(visit) // want "not preceded by a lock acquisition"
	})
}

func acquisitionAfterTheWalk(w *walked) {
	core.Atomically(func(tx *core.Txn) {
		w.m.RangeHeld(visit) // want "not preceded by a lock acquisition"
		tx.Lock(w.sem, w.mode, 0)
	})
}

// The acquisition belongs to another section: it was released when that
// section ended.
func acquisitionInAnotherSection(w *walked) {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(w.sem, w.mode, 0)
	})
	core.Atomically(func(tx *core.Txn) {
		w.m.RangeHeld(visit) // want "not preceded by a lock acquisition"
	})
}

func bareFunction(w *walked) {
	w.m.RangeHeld(visit) // want "not preceded by a lock acquisition"
}

// Observe takes nothing: an optimistic body holds no mode.
func insideOptimistic(w *walked) {
	core.Atomically(func(tx *core.Txn) {
		if tx.TryOptimistic(func(tx *core.Txn) bool {
			if !tx.Observe(w.sem, w.mode, 0) {
				return false
			}
			w.m.RangeHeld(visit) // want "inside a TryOptimistic body"
			return true
		}) {
			return
		}
		tx.Lock(w.sem, w.mode, 0)
		w.m.RangeHeld(visit)
	})
}

// Even with a lock taken before the envelope, the observer body is
// written to run with none.
func lockedThenOptimistic(w *walked) {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(w.sem, w.mode, 0)
		tx.TryOptimistic(func(tx *core.Txn) bool {
			w.m.RangeHeld(visit) // want "inside a TryOptimistic body"
			return true
		})
	})
}

// A core.Snapshot's Observe…Validate span is the same observer body
// without the transaction: it holds no mode either. The fallback's walk,
// after the span closed and under its own acquisition, is fine.
func insideSnapshotSpan(w *walked) {
	var sn core.Snapshot
	if sn.Observe(w.sem, w.mode) {
		w.m.RangeHeld(visit) // want "between a core.Snapshot's Observe and its Validate"
		if sn.Validate() {
			return
		}
	}
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(w.sem, w.mode, 0)
		w.m.RangeHeld(visit)
	})
}

func suppressed(w *walked) {
	//semlockvet:ignore heldwalk -- start-up: the map is not yet shared
	w.m.RangeHeld(visit)
}
