package core

import "testing"

// TestMemoSurvivesResetAcrossTables is the pooled-transaction staleness
// audit of Txn.CachedMode1: a pooled Txn that served sections of one
// ModeTable and is then reused against a different one must never serve
// a ModeID interned for the old table. The per-Txn memo this was
// written against is deleted — selection keeps no state on the Txn —
// and the name stays because the contract does: ModeIDs are only
// meaningful relative to their own table, whatever the Txn served
// before.
func TestMemoSurvivesResetAcrossTables(t *testing.T) {
	keySet := SymSetOf(SymOpOf("get", VarArg("k")), SymOpOf("put", VarArg("k"), Star()), SymOpOf("remove", VarArg("k")))
	sizeSet := SymSetOf(SymOpOf("size"))
	// Different φ widths: the same runtime value selects numerically
	// different ModeIDs in the two tables, so serving a stale entry
	// would be observable, not coincidentally correct.
	tblA := NewModeTable(mapSpec(), []SymSet{keySet, sizeSet}, TableOptions{Phi: NewPhi(8)})
	tblB := NewModeTable(mapSpec(), []SymSet{keySet, sizeSet}, TableOptions{Phi: NewPhi(2)})
	refA, refB := tblA.Set(keySet), tblB.Set(keySet)

	// Find a value whose selections differ across the tables (with
	// φ widths 8 vs 2 most values qualify; don't bake in which).
	probe := -1
	for v := 0; v < 16; v++ {
		if refA.Mode1(v) != refB.Mode1(v) {
			probe = v
			break
		}
	}
	if probe == -1 {
		t.Fatal("test premise: no value distinguishes the two tables")
	}

	tx := NewTxn()
	for v := 0; v < 16; v++ {
		tx.CachedMode1(refA, v)
	}
	tx.Reset() // pooled reuse

	if got, want := tx.CachedMode1(refB, probe), refB.Mode1(probe); got != want {
		t.Fatalf("pooled Txn served stale ModeID %d for table B value %d, want %d (table A interned %d)",
			got, probe, want, refA.Mode1(probe))
	}
	// And the reverse direction.
	if got, want := tx.CachedMode1(refA, probe), refA.Mode1(probe); got != want {
		t.Fatalf("CachedMode1 returned %d for table A after serving table B, want %d", got, want)
	}
}

// TestMemoDistinguishesSetsAndValueTypes: within one table, selecting
// for one set never answers for another, and the same number under a
// different dynamic type goes through φ on its own — on a Txn that just
// selected the other.
func TestMemoDistinguishesSetsAndValueTypes(t *testing.T) {
	keySet := SymSetOf(SymOpOf("get", VarArg("k")), SymOpOf("put", VarArg("k"), Star()), SymOpOf("remove", VarArg("k")))
	sizeSet := SymSetOf(SymOpOf("size"))
	tbl := NewModeTable(mapSpec(), []SymSet{keySet, sizeSet}, TableOptions{Phi: NewPhi(8)})
	keys, size := tbl.Set(keySet), tbl.Set(sizeSet)

	tx := NewTxn()
	for trial := 0; trial < 3; trial++ {
		if got, want := tx.CachedMode1(keys, 3), keys.Mode1(3); got != want {
			t.Fatalf("key set: got %d, want %d", got, want)
		}
		// Same value, different set of the same table (size is a
		// constant set; any value selects its single mode).
		if got, want := tx.CachedMode1(size, 3), size.Mode1(3); got != want {
			t.Fatalf("size set: got %d, want %d", got, want)
		}
		// Same numeric value under a different dynamic type.
		if got, want := tx.CachedMode1(keys, int32(3)), keys.Mode1(int32(3)); got != want {
			t.Fatalf("int32 key: got %d, want %d", got, want)
		}
	}
}
