package core

import "fmt"

// This file is the interned side of dynamic mode selection (§5.1). The
// reference path, ModeForValues, rebuilds a Mode value on every call:
// it allocates an assignment map, hashes each bound value through φ,
// and constructs fresh ModeOp/ModeArg slices. But the table already
// instantiated every mode a symbolic set can denote (setEntry.modes, a
// dense array indexed by the φ-images of the set's variables), so the
// hot path never needs to construct anything — it only needs the index.
// ModeCache exposes that interned lookup keyed by (symbolic-set id, φ
// of the bound abstract values), and SetRef.Mode1/Mode2 are its
// fixed-arity forms for call sites that resolved the set at setup.

// ModeCache interns dynamic mode selection for one ModeTable: for every
// (symbolic-set id, assignment of abstract values) it returns the
// table's canonical ModeID — and, on request, the interned Mode — with
// no construction, no map lookups, and no allocation. The backing store
// is the dense per-set table built at compilation, so the cache is
// complete from the start, never grows, and is safe for concurrent use.
type ModeCache struct {
	t *ModeTable
}

// Cache returns the table's mode cache.
func (t *ModeTable) Cache() *ModeCache { return &ModeCache{t: t} }

// SetID resolves a symbolic set to its dense id — the first component
// of the cache key. Resolve once at setup; the lookup hashes the set's
// canonical string key.
func (c *ModeCache) SetID(set SymSet) int {
	idx, ok := c.t.setIdx[set.Key()]
	if !ok {
		panic(fmt.Sprintf("core: symbolic set %s not registered in mode table", set))
	}
	return idx
}

// ModeAt returns the interned ModeID for the set and the given abstract
// values (φ already applied), in the set's canonical variable order.
func (c *ModeCache) ModeAt(setID int, abs ...int) ModeID {
	e := &c.t.sets[setID]
	if len(abs) != len(e.vars) {
		panic(fmt.Sprintf("core: set %s expects %d abstract values, got %d", e.set, len(e.vars), len(abs)))
	}
	idx := 0
	n := c.t.phi.N()
	for _, a := range abs {
		idx = idx*n + a
	}
	return e.modes[idx]
}

// Mode1 returns the interned ModeID of a one-variable set for value v.
func (c *ModeCache) Mode1(setID int, v Value) ModeID {
	e := &c.t.sets[setID]
	if len(e.vars) != 1 {
		panic(fmt.Sprintf("core: ModeCache.Mode1: set %s has %d variables", e.set, len(e.vars)))
	}
	return e.modes[c.t.abstract(v)]
}

// Mode2 returns the interned ModeID of a two-variable set for values
// (a, b) in the set's canonical variable order.
func (c *ModeCache) Mode2(setID int, a, b Value) ModeID {
	e := &c.t.sets[setID]
	if len(e.vars) != 2 {
		panic(fmt.Sprintf("core: ModeCache.Mode2: set %s has %d variables", e.set, len(e.vars)))
	}
	t := c.t
	return e.modes[t.abstract(a)*t.phi.N()+t.abstract(b)]
}

// Interned returns the canonical Mode value for an id — the same mode
// ModeForValues would construct for the matching values, without
// constructing it.
func (c *ModeCache) Interned(id ModeID) Mode { return c.t.modes[id] }

// ModeFor is the drop-in interned replacement for ModeForValues: it
// returns the identical Mode for the set and environment, taken from
// the table instead of built afresh. Unlike the hot-path selectors it
// still walks the environment map; it exists for callers migrating off
// ModeForValues and for tests asserting the interning is faithful.
func (c *ModeCache) ModeFor(set SymSet, env map[string]Value) Mode {
	return c.t.modes[c.t.Set(set).ModeEnv(env)]
}

// Mode1 is the fixed-arity direct selector for one-variable sets: like
// Binder1 without the closure, so call sites that already know the
// set's shape pay neither a variadic []Value allocation nor an indirect
// call. Constant sets are accepted (the value is ignored).
func (r SetRef) Mode1(v Value) ModeID {
	e := &r.t.sets[r.idx]
	switch len(e.vars) {
	case 0:
		return e.modes[0]
	case 1:
		return e.modes[r.t.abstract(v)]
	}
	panic(fmt.Sprintf("core: SetRef.Mode1: set %s has variables %v", e.set, e.vars))
}

// Mode2 is the fixed-arity direct selector for two-variable sets, with
// values in the set's canonical Vars() order (check Vars() once at
// setup — Binder2 does the same permutation check behind a closure).
// Constant sets are accepted (the values are ignored).
func (r SetRef) Mode2(a, b Value) ModeID {
	e := &r.t.sets[r.idx]
	switch len(e.vars) {
	case 0:
		return e.modes[0]
	case 2:
		t := r.t
		return e.modes[t.abstract(a)*t.phi.N()+t.abstract(b)]
	}
	panic(fmt.Sprintf("core: SetRef.Mode2: set %s has variables %v", e.set, e.vars))
}

// CachedMode1 forwards to SetRef.Mode1: selection is one hash and one
// table index, and no per-transaction memo in front of it was cheaper
// than that (DESIGN.md §8). The method exists because the benchmark
// ladder calls it by name; new code calls SetRef.Mode1.
func (t *Txn) CachedMode1(r SetRef, v Value) ModeID { return r.Mode1(v) }
