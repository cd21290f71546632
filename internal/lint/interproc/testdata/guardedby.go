// Fixture for the guardedby whole-program analyzer. Each `want`
// comment marks a line the analyzer must flag; everything else must
// stay silent.
package tdata

import (
	"repro/internal/adt"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/semadt"
)

type store struct {
	m    *semadt.Map
	q    *adt.Queue
	mu   cc.GlobalLock
	rank int
}

// Get is guarded: the operation runs inside an Atomically section.
func (s *store) Get(k core.Value) core.Value {
	var v core.Value
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(s.m.Sem(), core.ModeID(0), s.rank)
		v = s.m.Get(k)
	})
	return v
}

// Peek is exported and reads the map with no section: flagged.
func (s *store) Peek(k core.Value) core.Value {
	return s.m.Get(k) // want "reachable outside any atomic section"
}

// Evict reaches a naked operation through an unguarded helper call:
// the witness shows the chain Evict -> sweep.
func (s *store) Evict() {
	s.sweep()
}

func (s *store) sweep() {
	s.q.Dequeue() // want "reachable outside any atomic section"
}

// Size is guarded by the certified cc baseline.
func (s *store) Size() int {
	s.mu.Enter()
	defer s.mu.Exit()
	return s.q.Size()
}

// Snapshot's map is thread-local until returned: exempt.
func Snapshot() *adt.HashMap {
	m := adt.NewHashMap()
	m.Put(1, 2)
	return m
}

// Spawn leaks a locally built queue into a goroutine: the operation
// escapes any section the spawner might hold.
func Spawn() {
	q := adt.NewQueue()
	go func() {
		q.Enqueue(1) // want "reachable outside any atomic section"
	}()
}

// fill receives the transaction, so the section obligation is its
// callers' by contract: the naked operation is not flagged here.
func fill(tx *core.Txn, m *semadt.Map) {
	_ = tx
	m.Put(1, 2)
}

// Fill discharges fill's obligation inside a section.
func Fill(s *store) {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(s.m.Sem(), core.ModeID(0), s.rank)
		fill(tx, s.m)
	})
}

// Compiled is a //semlock:atomic section: the compiler wraps the whole
// body in a transaction, so its operations are guarded.
//
//semlock:atomic
func Compiled(s *store) {
	s.m.Put(1, 2)
}

// Unsafe is suppressed by a directive with a reason.
func (s *store) Unsafe() core.Value {
	return s.m.Get(9) //semlockvet:ignore guardedby -- fixture: deliberate unguarded read
}

// PoliciedPut is guarded: Policy.Run wraps its closure in
// core.Atomically, so the operations inside are section-guarded.
func PoliciedPut(pol *resilience.Policy, s *store) error {
	return pol.Run(func(tx *core.Txn) error {
		if err := tx.LockWithin(s.m.Sem(), core.ModeID(0), s.rank, pol.Patience()); err != nil {
			return err
		}
		s.m.Put(1, 2)
		return nil
	})
}

// PolicyLikeButNot: a closure handed to an arbitrary higher-order
// function stays an escape — only the resilience entry point certifies
// its argument.
func PolicyLikeButNot(run func(func(tx *core.Txn) error) error, s *store) error {
	return run(func(tx *core.Txn) error {
		s.m.Put(3, 4) // want "reachable outside any atomic section"
		return nil
	})
}

// BareGet is guarded: the read sits between a core.Snapshot's Observe
// and its Validate — the guard context of a TryOptimistic body without
// the transaction — and the fallback is a section of its own.
func (s *store) BareGet(k core.Value) core.Value {
	var sn core.Snapshot
	if sn.Observe(s.m.Sem(), core.ModeID(0)) {
		if v := s.m.Get(k); sn.Validate() {
			return v
		}
	}
	return s.Get(k)
}

// BareSize observes in a loop and reads after it, like a sharded scan.
func BareSize(ss []*store) (int, bool) {
	var sn core.Snapshot
	for _, s := range ss {
		if !sn.Observe(s.m.Sem(), core.ModeID(0)) {
			return 0, false
		}
	}
	n := 0
	for _, s := range ss {
		n += s.m.Size()
	}
	return n, sn.Validate()
}

// EarlyGet reads before its Observe: no version was sampled yet, so the
// validation that follows proves nothing about this read.
func (s *store) EarlyGet(k core.Value) core.Value {
	var sn core.Snapshot
	v := s.m.Get(k) // want "reachable outside any atomic section"
	if sn.Observe(s.m.Sem(), core.ModeID(0)) && sn.Validate() {
		return v
	}
	return s.Get(k)
}

// LateGet reads after Validate closed the span.
func (s *store) LateGet(k core.Value) core.Value {
	var sn core.Snapshot
	if !sn.Observe(s.m.Sem(), core.ModeID(0)) || !sn.Validate() {
		return s.Get(k)
	}
	return s.m.Get(k) // want "reachable outside any atomic section"
}

// OtherSpan's read follows the Validate of the snapshot that was
// observed; a second snapshot that observed nothing guards nothing.
func (s *store) OtherSpan(k core.Value) core.Value {
	var a, b core.Snapshot
	if !a.Observe(s.m.Sem(), core.ModeID(0)) || !a.Validate() {
		return s.Get(k)
	}
	v := s.m.Get(k) // want "reachable outside any atomic section"
	_ = b.Validate()
	return v
}

// Unvalidated observes and never validates: an open-ended span is not a
// guard, so the read is as naked as EarlyGet's.
func (s *store) Unvalidated(k core.Value) core.Value {
	var sn core.Snapshot
	if !sn.Observe(s.m.Sem(), core.ModeID(0)) {
		return s.Get(k)
	}
	return s.m.Get(k) // want "reachable outside any atomic section"
}

// DroppedValidate calls Validate and ignores what it says.
func (s *store) DroppedValidate(k core.Value) core.Value {
	var sn core.Snapshot
	if !sn.Observe(s.m.Sem(), core.ModeID(0)) {
		return s.Get(k)
	}
	v := s.m.Get(k) // want "reachable outside any atomic section"
	sn.Validate()
	return v
}
