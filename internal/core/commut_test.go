package core

import (
	"testing"
)

// fig19Table compiles the exact configuration of Fig 19: the Set ADT of
// Fig 3, symbolic sets {add(*)}, {add(5)} and {add(i),remove(j)}, and a
// hash φ onto two abstract values with φ(5) = α1.
func fig19Table(t *testing.T, opts TableOptions) *ModeTable {
	t.Helper()
	opts.Phi = NewFixedPhi(2, 1, map[Value]int{5: 0})
	sets := []SymSet{
		SymSetOf(SymOpOf("add", Star())),
		SymSetOf(SymOpOf("add", ConstArg(5))),
		SymSetOf(SymOpOf("add", VarArg("i")), SymOpOf("remove", VarArg("j"))),
	}
	return NewModeTable(setSpec(), sets, opts)
}

// TestFig19 reproduces the commutativity function of Fig 19 entry by
// entry (experiment E6 in DESIGN.md).
func TestFig19(t *testing.T) {
	tbl := fig19Table(t, TableOptions{DisableMerging: true})
	if len(tbl.Modes()) != 6 {
		t.Fatalf("got %d modes, want 6: %v", len(tbl.Modes()), tbl.Modes())
	}
	idx := make(map[string]ModeID)
	for i, m := range tbl.Modes() {
		idx[m.Key()] = ModeID(i)
	}
	const (
		addStar = "{add(*)}"
		add5    = "{add(5)}"
		a1r1    = "{add(α1),remove(α1)}"
		a1r2    = "{add(α1),remove(α2)}"
		a2r1    = "{add(α2),remove(α1)}"
		a2r2    = "{add(α2),remove(α2)}"
	)
	// The full symmetric matrix of Fig 19 (upper triangle as printed).
	want := map[[2]string]bool{
		{addStar, addStar}: true,
		{addStar, add5}:    true,
		{addStar, a1r1}:    false,
		{addStar, a1r2}:    false,
		{addStar, a2r1}:    false,
		{addStar, a2r2}:    false,
		{add5, add5}:       true,
		{add5, a1r1}:       false,
		{add5, a1r2}:       true,
		{add5, a2r1}:       false,
		{add5, a2r2}:       true,
		{a1r1, a1r1}:       false,
		{a1r1, a1r2}:       false,
		{a1r1, a2r1}:       false,
		{a1r1, a2r2}:       true,
		{a1r2, a1r2}:       true,
		{a1r2, a2r1}:       false,
		{a1r2, a2r2}:       false,
		{a2r1, a2r1}:       true,
		{a2r1, a2r2}:       false,
		{a2r2, a2r2}:       false,
	}
	for pair, w := range want {
		a, ok1 := idx[pair[0]]
		b, ok2 := idx[pair[1]]
		if !ok1 || !ok2 {
			t.Fatalf("mode missing: %v present=%v", pair, idx)
		}
		if got := tbl.Commute(a, b); got != w {
			t.Errorf("F_c(%s, %s) = %v, want %v", pair[0], pair[1], got, w)
		}
		if got := tbl.Commute(b, a); got != w {
			t.Errorf("F_c(%s, %s) = %v, want %v (symmetry)", pair[1], pair[0], got, w)
		}
	}
}

// TestFig19NoMergeableModes: the six Fig 19 modes are pairwise
// distinguishable, so merging must keep all six.
func TestFig19NoMergeableModes(t *testing.T) {
	tbl := fig19Table(t, TableOptions{})
	if len(tbl.Modes()) != 6 {
		t.Errorf("merging changed Fig 19 mode count: %d", len(tbl.Modes()))
	}
	if got := tbl.CanonicalCount(); got != 6 {
		t.Errorf("Fig 19 modes are pairwise distinguishable; canonical count = %d, want 6", got)
	}
	if tbl.NumMechanisms() != 1 {
		t.Errorf("Fig 19 conflict graph is connected; want 1 mechanism, got %d", tbl.NumMechanisms())
	}
}

// TestDynamicModeSelection follows §5.1's lowering of lock(SY_v): the
// runtime values of i and j choose the mode through φ.
func TestDynamicModeSelection(t *testing.T) {
	tbl := fig19Table(t, TableOptions{})
	set := SymSetOf(SymOpOf("add", VarArg("i")), SymOpOf("remove", VarArg("j")))
	ref := tbl.Set(set)
	if got := ref.Vars(); len(got) != 2 || got[0] != "i" || got[1] != "j" {
		t.Fatalf("Vars = %v", got)
	}
	// φ(5)=α1, default bucket is α2.
	m := ref.Mode(5, 9)
	if got := tbl.Mode(m).Key(); got != "{add(α1),remove(α2)}" {
		t.Errorf("Mode(5,9) = %s", got)
	}
	m = ref.Mode(9, 5)
	if got := tbl.Mode(m).Key(); got != "{add(α2),remove(α1)}" {
		t.Errorf("Mode(9,5) = %s", got)
	}
	cref := tbl.Set(SymSetOf(SymOpOf("add", Star())))
	if got := tbl.Mode(cref.Mode()).Key(); got != "{add(*)}" {
		t.Errorf("constant set mode = %s", got)
	}
}

func TestSetRefWrongArity(t *testing.T) {
	tbl := fig19Table(t, TableOptions{})
	ref := tbl.Set(SymSetOf(SymOpOf("add", VarArg("i")), SymOpOf("remove", VarArg("j"))))
	defer func() {
		if recover() == nil {
			t.Error("wrong value count must panic")
		}
	}()
	ref.Mode(1)
}

func TestUnregisteredSetPanics(t *testing.T) {
	tbl := fig19Table(t, TableOptions{})
	defer func() {
		if recover() == nil {
			t.Error("unregistered set must panic")
		}
	}()
	tbl.Set(SymSetOf(SymOpOf("size")))
}

// TestIndistinguishableMerging: under an all-Never spec every mode
// conflicts with every mode, so all rows are identical and the table
// collapses to a single exclusive mode (§5.3, opt. 1).
func TestIndistinguishableMerging(t *testing.T) {
	spec := NewSpec("X", MethodSig{"f", 1}, MethodSig{"g", 1})
	sets := []SymSet{
		SymSetOf(SymOpOf("f", VarArg("i"))),
		SymSetOf(SymOpOf("g", VarArg("j"))),
	}
	tbl := NewModeTable(spec, sets, TableOptions{Phi: NewPhi(4)})
	if len(tbl.Modes()) != 8 {
		t.Fatalf("instantiated modes = %d, want 8", len(tbl.Modes()))
	}
	if got := tbl.CanonicalCount(); got != 1 {
		t.Errorf("canonical count = %d, want 1 (all indistinguishable)", got)
	}
	if tbl.Commute(0, 0) {
		t.Error("the merged mode must be exclusive")
	}
	// The shared counter means any two holders conflict, even of
	// different instantiated modes.
	s := NewSemantic(tbl)
	s.Acquire(0)
	if s.TryAcquire(3) {
		t.Error("modes sharing the exclusive counter must conflict")
	}
	s.Release(0)
}

// TestPartitioning: with per-key get and put sets over two buckets the
// conflict graph splits into one component per bucket → two mechanisms
// (§5.2 lock partitioning).
func TestPartitioning(t *testing.T) {
	sets := []SymSet{
		SymSetOf(SymOpOf("get", VarArg("k"))),
		SymSetOf(SymOpOf("put", VarArg("k"), Star())),
	}
	tbl := NewModeTable(mapSpec(), sets, TableOptions{Phi: NewPhi(2)})
	if got := tbl.NumMechanisms(); got != 2 {
		t.Errorf("mechanisms = %d, want 2", got)
	}
	off := NewModeTable(mapSpec(), sets, TableOptions{Phi: NewPhi(2), DisablePartitioning: true})
	if got := off.NumMechanisms(); got != 1 {
		t.Errorf("with partitioning disabled mechanisms = %d, want 1", got)
	}
}

// TestFreePartition: a mode that commutes with everything (including
// itself) needs no mechanism at all.
func TestFreePartition(t *testing.T) {
	spec := NewSpec("R", MethodSig{"get", 1})
	spec.Commute("get", "get", Always)
	sets := []SymSet{SymSetOf(SymOpOf("get", Star()))}
	tbl := NewModeTable(spec, sets, TableOptions{Phi: NewPhi(2)})
	if tbl.NumMechanisms() != 0 {
		t.Errorf("read-only table should need 0 mechanisms, got %d", tbl.NumMechanisms())
	}
	// Acquiring the free mode must be a no-op that never blocks.
	s := NewSemantic(tbl)
	m := tbl.Set(sets[0]).Mode()
	for i := 0; i < 3; i++ {
		s.Acquire(m)
	}
	s.Release(m)
}

// TestCoarsening: MaxModes caps raw mode count by halving φ (§5.3 opt 3).
func TestCoarsening(t *testing.T) {
	sets := []SymSet{
		SymSetOf(SymOpOf("put", VarArg("a"), VarArg("b"))),
	}
	tbl := NewModeTable(mapSpec(), sets, TableOptions{Phi: NewPhi(64), MaxModes: 4})
	if got := tbl.Phi().N(); got != 2 {
		t.Errorf("coarsened φ has %d buckets, want 2 (2^2 = 4 ≤ MaxModes)", got)
	}
	if len(tbl.Modes()) > 4 {
		t.Errorf("raw modes = %d exceeds MaxModes", len(tbl.Modes()))
	}
}

func TestCoversOp(t *testing.T) {
	tbl := fig19Table(t, TableOptions{})
	set := SymSetOf(SymOpOf("add", VarArg("i")), SymOpOf("remove", VarArg("j")))
	m := tbl.Set(set).Mode(5, 9) // {add(α1),remove(α2)}
	if !tbl.CoversOp(m, NewOp("add", 5)) {
		t.Error("add(5) must be covered (φ(5)=α1)")
	}
	if !tbl.CoversOp(m, NewOp("remove", 9)) {
		t.Error("remove(9) must be covered (bucket α2)")
	}
	if tbl.CoversOp(m, NewOp("remove", 5)) {
		t.Error("remove(5) in bucket α1 must not be covered by remove(α2)")
	}
	if tbl.CoversOp(m, NewOp("size")) {
		t.Error("size() must not be covered")
	}
}

// TestTableSoundness: for every pair of canonical modes marked
// commutative, every pair of concrete operations drawn from a small
// domain and covered by the respective modes must commute per the spec.
func TestTableSoundness(t *testing.T) {
	tbl := fig19Table(t, TableOptions{})
	phi := tbl.Phi()
	domain := []Value{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	var concrete []Op
	for _, m := range []string{"add", "remove", "contains"} {
		for _, v := range domain {
			concrete = append(concrete, NewOp(m, v))
		}
	}
	concrete = append(concrete, NewOp("size"), NewOp("clear"))
	spec := tbl.Spec
	for i := range tbl.Modes() {
		for j := range tbl.Modes() {
			if !tbl.Commute(ModeID(i), ModeID(j)) {
				continue
			}
			for _, oa := range concrete {
				if !tbl.Modes()[i].Covers(oa, phi) {
					continue
				}
				for _, ob := range concrete {
					if !tbl.Modes()[j].Covers(ob, phi) {
						continue
					}
					if !spec.OpsCommute(oa, ob) {
						t.Fatalf("F_c(%s,%s)=true but %s and %s do not commute",
							tbl.Modes()[i], tbl.Modes()[j], oa, ob)
					}
				}
			}
		}
	}
}
