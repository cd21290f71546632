package core

import "fmt"

// This file is the interned side of dynamic mode selection (§5.1). The
// reference path, ModeForValues, rebuilds a Mode value on every call:
// it allocates an assignment map, hashes each bound value through φ,
// and constructs fresh ModeOp/ModeArg slices. But the table already
// instantiated every mode a symbolic set can denote (setEntry.modes, a
// dense array indexed by the φ-images of the set's variables), so the
// hot path never needs to construct anything — it only needs the index.
// SetRef.Mode1/Mode2 are that lookup in fixed arity, for call sites
// that resolved the set at setup.

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
