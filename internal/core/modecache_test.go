package core

import (
	"math/rand"
	"testing"
)

// TestModeCacheFaithful: the interned selectors of modecache.go return
// exactly the mode the reference path (ModeForValues) constructs, for
// random values of a representative table's key set.
func TestModeCacheFaithful(t *testing.T) {
	tbl := mapTable(t, 8, TableOptions{})
	keySet := SymSetOf(SymOpOf("get", VarArg("k")), SymOpOf("put", VarArg("k"), Star()), SymOpOf("remove", VarArg("k")))
	sizeSet := SymSetOf(SymOpOf("size"))
	rng := rand.New(rand.NewSource(1))

	keyRef := tbl.Set(keySet)
	for trial := 0; trial < 200; trial++ {
		v := rng.Intn(64)
		want := keyRef.Mode(v)
		if got := keyRef.Mode1(v); got != want {
			t.Fatalf("SetRef.Mode1(%d) = %d, want %d", v, got, want)
		}
		ref := ModeForValues(keySet, tbl.Phi(), map[string]Value{"k": v})
		if interned := tbl.Mode(want); interned.String() != ref.String() {
			t.Fatalf("Mode(%d) = %s, reference build = %s", want, interned, ref)
		}
	}

	// Constant sets: the fixed-arity SetRef selectors accept them and
	// ignore the values (call sites share one selector shape).
	sizeRef := tbl.Set(sizeSet)
	want := sizeRef.Mode()
	if got := sizeRef.Mode1(99); got != want {
		t.Fatalf("SetRef.Mode1 on constant set = %d, want %d", got, want)
	}
	if got := sizeRef.Mode2(1, 2); got != want {
		t.Fatalf("SetRef.Mode2 on constant set = %d, want %d", got, want)
	}
}

// TestModeCacheArityPanics: the fixed-arity selectors refuse sets of the
// wrong shape instead of silently mis-indexing.
func TestModeCacheArityPanics(t *testing.T) {
	tbl := mapTable(t, 4, TableOptions{})
	keySet := SymSetOf(SymOpOf("get", VarArg("k")), SymOpOf("put", VarArg("k"), Star()), SymOpOf("remove", VarArg("k")))
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Mode2 on 1-var set", func() { tbl.Set(keySet).Mode2(1, 2) })
	mustPanic("Mode arity", func() { tbl.Set(keySet).Mode(1, 2) })
}

// TestTxnCachedModeMemo: Txn.CachedMode1 returns the same ModeID as the
// direct selector, across Reset, and allocates nothing. (The memo of
// the name is deleted; CachedMode1 forwards to SetRef.Mode1.)
func TestTxnCachedModeMemo(t *testing.T) {
	tbl := mapTable(t, 8, TableOptions{})
	keySet := SymSetOf(SymOpOf("get", VarArg("k")), SymOpOf("put", VarArg("k"), Star()), SymOpOf("remove", VarArg("k")))
	ref := tbl.Set(keySet)
	tx := NewTxn()

	for round := 0; round < 3; round++ {
		for v := 0; v < 16; v++ {
			if got, want := tx.CachedMode1(ref, v), ref.Mode1(v); got != want {
				t.Fatalf("round %d: CachedMode1(%d) = %d, want %d", round, v, got, want)
			}
		}
		tx.Reset()
	}

	var boxed Value = 7
	if n := testing.AllocsPerRun(100, func() { tx.CachedMode1(ref, boxed) }); n != 0 {
		t.Errorf("CachedMode1 allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ref.Mode1(boxed) }); n != 0 {
		t.Errorf("SetRef.Mode1 allocates %v per run, want 0", n)
	}
}

// TestTxnCachedMode2: the two-value selector distinguishes value order,
// against the reference construction. (Txn.CachedMode2 is deleted;
// SetRef.Mode2 is what its callers use.)
func TestTxnCachedMode2(t *testing.T) {
	spec := mapSpec()
	set := SymSetOf(SymOpOf("put", VarArg("a"), VarArg("b")))
	tbl := NewModeTable(spec, []SymSet{set}, TableOptions{Phi: NewPhi(4)})
	ref := tbl.Set(set)
	want := func(a, b Value) string {
		return ModeForValues(set, tbl.Phi(), map[string]Value{"a": a, "b": b}).String()
	}
	for trial := 0; trial < 50; trial++ {
		a, b := trial%5, (trial*3)%7
		if got := tbl.Mode(ref.Mode2(a, b)).String(); got != want(a, b) {
			t.Fatalf("Mode2(%d,%d) = %s, want %s", a, b, got, want(a, b))
		}
	}
	// (a,b) and (b,a) select different modes when φ separates a and b.
	if tbl.Phi().Abstract(1) != tbl.Phi().Abstract(2) && ref.Mode2(1, 2) == ref.Mode2(2, 1) {
		t.Fatal("Mode2 conflated value orders")
	}
}
