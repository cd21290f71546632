// Package semadt provides "ADTs with semantic locking" (§2.2): the
// shared containers of internal/adt paired with their per-instance
// semantic locks. These are the containers of the compiled modules,
// which code rewritten by the semlockc compiler (internal/gosrc)
// manipulates: every instance exposes Sem() for the inserted lock
// statements, while the standard API stays the familiar container
// interface.
package semadt

import (
	"repro/internal/adt"
	"repro/internal/core"
)

// Map is a Map ADT with semantic locking.
type Map struct {
	m   *adt.HashMap
	sem *core.Semantic
}

// NewMap creates a Map instance governed by the compiled mode table of
// its equivalence class.
func NewMap(tbl *core.ModeTable) *Map {
	return &Map{m: adt.NewHashMap(), sem: core.NewSemantic(tbl)}
}

// Sem returns the semantic lock.
func (x *Map) Sem() *core.Semantic { return x.sem }

// Get returns the binding of k (nil when absent).
func (x *Map) Get(k core.Value) core.Value { return x.m.Get(k) }

// Put binds k to v, returning the previous value.
func (x *Map) Put(k, v core.Value) core.Value { return x.m.Put(k, v) }

// Remove unbinds k, returning the removed value.
func (x *Map) Remove(k core.Value) core.Value { return x.m.Remove(k) }

// ContainsKey reports whether k is bound.
func (x *Map) ContainsKey(k core.Value) bool { return x.m.ContainsKey(k) }

// PutIfAbsent binds k to v when absent, returning the existing value.
func (x *Map) PutIfAbsent(k, v core.Value) core.Value { return x.m.PutIfAbsent(k, v) }

// Size returns the binding count.
func (x *Map) Size() int { return x.m.Size() }

// Clear removes all bindings.
func (x *Map) Clear() { x.m.Clear() }

// Values returns a snapshot of the bound values.
func (x *Map) Values() []core.Value { return x.m.Values() }

// Set is a Set ADT with semantic locking (Fig 3a).
type Set struct {
	s   *adt.HashSet
	sem *core.Semantic
}

// NewSet creates a Set instance governed by its class's mode table.
func NewSet(tbl *core.ModeTable) *Set {
	return &Set{s: adt.NewHashSet(), sem: core.NewSemantic(tbl)}
}

// Sem returns the semantic lock.
func (x *Set) Sem() *core.Semantic { return x.sem }

// Add inserts v.
func (x *Set) Add(v core.Value) { x.s.Add(v) }

// Remove deletes v.
func (x *Set) Remove(v core.Value) { x.s.Remove(v) }

// Contains reports membership.
func (x *Set) Contains(v core.Value) bool { return x.s.Contains(v) }

// Size returns the element count.
func (x *Set) Size() int { return x.s.Size() }

// Clear removes every element.
func (x *Set) Clear() { x.s.Clear() }

// Queue is a Queue ADT with semantic locking.
type Queue struct {
	q   *adt.Queue
	sem *core.Semantic
}

// NewQueue creates a Queue instance governed by its class's mode table.
func NewQueue(tbl *core.ModeTable) *Queue {
	return &Queue{q: adt.NewQueue(), sem: core.NewSemantic(tbl)}
}

// Sem returns the semantic lock.
func (x *Queue) Sem() *core.Semantic { return x.sem }

// Enqueue appends v.
func (x *Queue) Enqueue(v core.Value) { x.q.Enqueue(v) }

// Dequeue removes the oldest element (nil when empty).
func (x *Queue) Dequeue() core.Value {
	v, _ := x.q.Dequeue()
	return v
}

// IsEmpty reports emptiness.
func (x *Queue) IsEmpty() bool { return x.q.IsEmpty() }

// Size returns the element count.
func (x *Queue) Size() int { return x.q.Size() }

// Multimap is a Multimap ADT with semantic locking.
type Multimap struct {
	m   *adt.Multimap
	sem *core.Semantic
}

// NewMultimap creates a Multimap instance governed by its class's table.
func NewMultimap(tbl *core.ModeTable) *Multimap {
	return &Multimap{m: adt.NewMultimap(), sem: core.NewSemantic(tbl)}
}

// Sem returns the semantic lock.
func (x *Multimap) Sem() *core.Semantic { return x.sem }

// Put associates v with k.
func (x *Multimap) Put(k, v core.Value) bool { return x.m.Put(k, v) }

// Get returns a snapshot of k's values.
func (x *Multimap) Get(k core.Value) []core.Value { return x.m.Get(k) }

// Remove deletes the entry (k, v).
func (x *Multimap) Remove(k, v core.Value) bool { return x.m.Remove(k, v) }

// RemoveAll deletes every entry of k.
func (x *Multimap) RemoveAll(k core.Value) []core.Value { return x.m.RemoveAll(k) }

// ContainsEntry reports whether (k, v) is present.
func (x *Multimap) ContainsEntry(k, v core.Value) bool { return x.m.ContainsEntry(k, v) }

// Size returns the entry count.
func (x *Multimap) Size() int { return x.m.Size() }

// SemOf returns v's semantic lock when v is one of this package's
// containers, else nil — the helper generated lock statements use on
// possibly-nil variables. A switch on the concrete types, unlike a call
// through an interface, does not leak v.
func SemOf(v core.Value) *core.Semantic {
	switch x := v.(type) {
	case *Map:
		return x.sem
	case *Set:
		return x.sem
	case *Queue:
		return x.sem
	case *Multimap:
		return x.sem
	}
	return nil
}

// ID returns the identity of an ADT value for φ (mode selection over
// pointer-valued arguments); non-ADT values pass through.
func ID(v core.Value) core.Value {
	if s := SemOf(v); s != nil {
		return s.ID()
	}
	return v
}
