package core

import "testing"

// TestSpecFig3b checks the Set specification against the paper's
// Example 2.3: add(7) and remove(7) do not commute; add(7) and
// remove(10) do.
func TestSpecFig3b(t *testing.T) {
	s := setSpec()
	if s.OpsCommute(NewOp("add", 7), NewOp("remove", 7)) {
		t.Error("add(7) and remove(7) must not commute")
	}
	if !s.OpsCommute(NewOp("add", 7), NewOp("remove", 10)) {
		t.Error("add(7) and remove(10) must commute")
	}
	if !s.OpsCommute(NewOp("add", 1), NewOp("add", 1)) {
		t.Error("add operations always commute")
	}
	if s.OpsCommute(NewOp("size"), NewOp("add", 3)) {
		t.Error("size() never commutes with add")
	}
	if s.OpsCommute(NewOp("clear"), NewOp("contains", 3)) {
		t.Error("clear() never commutes with contains")
	}
	if !s.OpsCommute(NewOp("size"), NewOp("contains", 3)) {
		t.Error("size() commutes with contains")
	}
}

func TestSpecSymmetry(t *testing.T) {
	s := setSpec()
	pairs := [][2]Op{
		{NewOp("add", 1), NewOp("remove", 2)},
		{NewOp("add", 1), NewOp("remove", 1)},
		{NewOp("size"), NewOp("add", 1)},
		{NewOp("contains", 5), NewOp("size")},
	}
	for _, p := range pairs {
		if s.OpsCommute(p[0], p[1]) != s.OpsCommute(p[1], p[0]) {
			t.Errorf("commutativity of (%s,%s) not symmetric", p[0], p[1])
		}
	}
}

func TestSpecDefaultNever(t *testing.T) {
	s := NewSpec("X", MethodSig{"a", 0}, MethodSig{"b", 0})
	if s.OpsCommute(NewOp("a"), NewOp("b")) {
		t.Error("unspecified pair must default to never-commute")
	}
}

func TestSpecMethodLookup(t *testing.T) {
	s := setSpec()
	m, ok := s.Method("add")
	if !ok || m.Arity != 1 {
		t.Errorf("Method(add) = %v, %v", m, ok)
	}
	if _, ok := s.Method("nope"); ok {
		t.Error("unknown method should not be found")
	}
}

func TestSpecValidate(t *testing.T) {
	if errs := setSpec().Validate(); len(errs) != 0 {
		t.Errorf("setSpec should validate cleanly: %v", errs)
	}
	if errs := mapSpec().Validate(); len(errs) != 0 {
		t.Errorf("mapSpec should validate cleanly: %v", errs)
	}
	bad := NewSpec("B", MethodSig{"f", 1}, MethodSig{"g", 1})
	bad.Commute("f", "g", ArgsNE(1, 0)) // index 1 out of range for f/1
	if errs := bad.Validate(); len(errs) == 0 {
		t.Error("out-of-range condition index should fail validation")
	}
}

func TestSpecDuplicateMethodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate method must panic")
		}
	}()
	NewSpec("D", MethodSig{"f", 0}, MethodSig{"f", 1})
}

func TestSpecUnknownMethodPanics(t *testing.T) {
	s := NewSpec("U", MethodSig{"f", 0})
	defer func() {
		if recover() == nil {
			t.Error("Commute with unknown method must panic")
		}
	}()
	s.Commute("f", "g", Always)
}

// TestSpecSwappedAsymmetricCond verifies swapped lookup with an
// asymmetric condition: commute("f","g", ArgsNE(1,0)) relates f's second
// argument to g's first; querying (g,f) must compare g's first against
// f's second.
func TestSpecSwappedAsymmetricCond(t *testing.T) {
	s := NewSpec("A", MethodSig{"f", 2}, MethodSig{"g", 1})
	s.Commute("f", "g", ArgsNE(1, 0))
	if !s.OpsCommute(NewOp("f", 0, 10), NewOp("g", 20)) {
		t.Error("f(0,10) vs g(20): 10≠20 → commute")
	}
	if s.OpsCommute(NewOp("g", 10), NewOp("f", 0, 10)) {
		t.Error("g(10) vs f(0,10): 10=10 → no commute (swapped)")
	}
	if !s.OpsCommute(NewOp("g", 11), NewOp("f", 0, 10)) {
		t.Error("g(11) vs f(0,10): 11≠10 → commute (swapped)")
	}
}
