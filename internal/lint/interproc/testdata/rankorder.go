// Fixture for the rankorder whole-program analyzer: a descending
// constant pair, a symbolic two-section cycle, an interprocedural
// cycle through a Txn-passing helper, and branch/TwoPL shapes that
// must stay silent.
package tdata

import (
	"time"

	"repro/internal/cc"
	"repro/internal/core"
)

type pair struct {
	a, b         *core.Semantic
	rankA, rankB int
}

// TransferAB and TransferBA acquire the two symbolic ranks in opposite
// orders: the global lock-order graph has a cycle.
func (p *pair) TransferAB() {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(p.a, core.ModeID(0), p.rankA)
		tx.Lock(p.b, core.ModeID(0), p.rankB)
	})
}

func (p *pair) TransferBA() {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(p.b, core.ModeID(0), p.rankB)
		tx.Lock(p.a, core.ModeID(0), p.rankA)
	})
}

// Shrink acquires constant ranks in descending order on one
// transaction: reported directly, no graph needed.
func Shrink(a, b *core.Semantic) {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(a, core.ModeID(0), 2)
		tx.Lock(b, core.ModeID(0), 1) // want "rank 1 acquired after rank 2"
	})
}

// ShrinkBatch is the same inversion through the bounded fused
// prologue: LockBatchWithin's entries carry ranks like LockBatch's.
func ShrinkBatch(a, b *core.Semantic) error {
	var err error
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(a, core.ModeID(0), 4)
		err = tx.LockBatchWithin(time.Millisecond, core.BatchLock{Sem: b, Rank: 3}) // want "rank 3 acquired after rank 4"
	})
	return err
}

type grid struct {
	x, y         *core.Semantic
	rankX, rankY int
}

func lockY(tx *core.Txn, g *grid) {
	tx.Lock(g.y, core.ModeID(0), g.rankY)
}

// CrossXY locks X then reaches Y through the helper; CrossYX locks in
// the opposite order: an interprocedural cycle whose witness crosses
// the lockY splice.
func (g *grid) CrossXY() {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(g.x, core.ModeID(0), g.rankX)
		lockY(tx, g)
	})
}

func (g *grid) CrossYX() {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(g.y, core.ModeID(0), g.rankY)
		tx.Lock(g.x, core.ModeID(0), g.rankX)
	})
}

type opt struct {
	a, b   *core.Semantic
	r1, r2 int
}

// Pick's arms are alternatives: they impose no mutual order, so the
// opposite arrangement in PickRev is not a cycle.
func (o *opt) Pick(c bool) {
	core.Atomically(func(tx *core.Txn) {
		if c {
			tx.Lock(o.a, core.ModeID(0), o.r1)
		} else {
			tx.Lock(o.b, core.ModeID(0), o.r2)
		}
	})
}

func (o *opt) PickRev(c bool) {
	core.Atomically(func(tx *core.Txn) {
		if c {
			tx.Lock(o.b, core.ModeID(0), o.r2)
		} else {
			tx.Lock(o.a, core.ModeID(0), o.r1)
		}
	})
}

type bank struct {
	l1, l2 *cc.InstanceLock
}

// Move and Audit agree on the baseline instance-lock order: silent.
func (b *bank) Move() {
	var tx cc.TwoPL
	defer tx.UnlockAll()
	tx.Lock(b.l1)
	tx.Lock(b.l2)
}

func (b *bank) Audit() {
	var tx cc.TwoPL
	defer tx.UnlockAll()
	tx.LockOrdered(b.l1, b.l2)
}

// ReadBA and ReadAB observe the pair's instances in opposite orders on a
// core.Snapshot: an observation acquires nothing and carries no rank,
// so the span is an order-free alternative to the fallback behind it —
// no edge, no cycle. (Their fallbacks agree with TransferAB.)
func (p *pair) ReadBA() {
	var sn core.Snapshot
	if sn.Observe(p.b, core.ModeID(0)) && sn.Observe(p.a, core.ModeID(0)) && sn.Validate() {
		return
	}
	p.TransferAB()
}

func (p *pair) ReadAB() {
	var sn core.Snapshot
	if sn.Observe(p.a, core.ModeID(0)) && sn.Observe(p.b, core.ModeID(0)) && sn.Validate() {
		return
	}
	p.TransferAB()
}
