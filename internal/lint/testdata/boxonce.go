// Fixture for the boxonce analyzer: a key variable boxed into
// core.Value more than once inside one atomic section.
package tdata

import (
	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/resilience"
)

type kv struct {
	m   *adt.HashMap
	sem *core.Semantic
	ref core.SetRef
	sel func(...core.Value) core.ModeID
}

func boxedTwice(s *kv, k int) {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(s.sem, s.ref.Mode1(k), 0)
		s.m.Put(k, nil) // want "k is converted to core.Value again"
	})
}

func boxedInNestedLiteral(s *kv, name string) (v core.Value) {
	core.Atomically(func(tx *core.Txn) {
		if tx.TryOptimistic(func(tx *core.Txn) bool {
			v = s.m.Get(name)
			return tx.Observe(s.sem, s.ref.Mode1(name), 0) // want "name is converted to core.Value again"
		}) {
			return
		}
		tx.Lock(s.sem, s.ref.Mode1(name), 0)
	})
	return v
}

func boxedThroughVariadicAndPolicy(s *kv, p *resilience.Policy, k string) error {
	return p.Run(func(tx *core.Txn) error {
		if err := tx.LockWithin(s.sem, s.sel(k), 0, p.Patience()); err != nil {
			return err
		}
		s.m.Remove(k) // want "k is converted to core.Value again"
		return nil
	})
}

func explicitConversions(s *kv, k int) {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(s.sem, s.ref.Mode1(core.Value(k)), 0)
		s.m.Remove(core.Value(k)) // want "k is converted to core.Value again"
	})
}

func boxedOnceAtTheDoor(s *kv, k int) {
	kv := core.Value(k)
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(s.sem, s.ref.Mode1(kv), 0) // already an interface: no conversion
		s.m.Put(kv, kv)
	})
}

func pointersBoxForFree(s *kv, c *kv) {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(s.sem, s.ref.Mode1(c), 0) // a pointer's box is the pointer
		s.m.Put(c, c)
	})
}

func distinctVariables(s *kv, a, b int) {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(s.sem, s.ref.Mode1(a), 0) // one conversion each
		s.m.Remove(b)
	})
}

func outsideAnySection(s *kv, k int) {
	s.m.Put(k, nil) // not inside a section: the analyzer's scope is the hot path
	s.m.Remove(k)
}

func suppressed(s *kv, k int) {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(s.sem, s.ref.Mode1(k), 0)
		//semlockvet:ignore boxonce -- cold path: runs once at start-up, clarity over one allocation
		s.m.Put(k, nil)
	})
}
