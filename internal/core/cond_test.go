package core

import "testing"

func TestCondConcrete(t *testing.T) {
	if !Always.Holds([]Value{1}, []Value{1}) {
		t.Error("Always must hold")
	}
	if Never.Holds([]Value{1}, []Value{2}) {
		t.Error("Never must not hold")
	}
	ne := ArgsNE(0, 0)
	if ne.Holds([]Value{7}, []Value{7}) {
		t.Error("ArgsNE(0,0) on (7,7) must be false")
	}
	if !ne.Holds([]Value{7}, []Value{10}) {
		t.Error("ArgsNE(0,0) on (7,10) must be true")
	}
	eq := ArgsEQ(0, 1)
	if !eq.Holds([]Value{"k"}, []Value{"other", "k"}) {
		t.Error("ArgsEQ(0,1) should hold")
	}
}

func TestCondSwapped(t *testing.T) {
	// add(v) vs contains(v') commute when v ≠ v'; looked up the other way
	// around, the indices must swap roles.
	ne := ArgsNE(0, 1)
	sw := ne.Swapped()
	a := []Value{10, 20}
	b := []Value{20}
	if ne.Holds(b, a) { // b0=20 vs a1=20 → equal → false
		t.Error("ArgsNE(0,1) mis-evaluated")
	}
	if sw.Holds(a, b) { // swapped: a1=20 vs b0=20 → false
		t.Error("swapped ArgsNE should compare the same positions")
	}
	if !sw.Holds([]Value{10, 99}, b) {
		t.Error("swapped ArgsNE should hold for distinct values")
	}
}

func TestCondAndOr(t *testing.T) {
	c := AndCond(ArgsNE(0, 0), ArgsNE(1, 1))
	if !c.Holds([]Value{1, 2}, []Value{3, 4}) {
		t.Error("conjunction should hold when both do")
	}
	if c.Holds([]Value{1, 2}, []Value{1, 4}) {
		t.Error("conjunction should fail when one side fails")
	}
	d := OrCond(ArgsNE(0, 0), ArgsNE(1, 1))
	if !d.Holds([]Value{1, 2}, []Value{1, 4}) {
		t.Error("disjunction should hold when one side does")
	}
	if d.Holds([]Value{1, 2}, []Value{1, 2}) {
		t.Error("disjunction should fail when both fail")
	}
	if AndCond() != Always || OrCond() != Never {
		t.Error("empty conjunction/disjunction identities wrong")
	}
}

func TestCondDefinitelyNE(t *testing.T) {
	phi := NewFixedPhi(2, 0, map[Value]int{5: 0, 6: 1})
	ne := ArgsNE(0, 0)
	cases := []struct {
		a, b ModeArg
		want bool
	}{
		{MConst(5), MConst(6), true},  // distinct constants
		{MConst(5), MConst(5), false}, // same constant
		{MConst(5), MAbs(1), true},    // φ(5)=α1(0) ≠ α2 → disjoint
		{MConst(5), MAbs(0), false},   // 5 lies in bucket α1
		{MAbs(0), MAbs(1), true},      // distinct buckets are disjoint
		{MAbs(0), MAbs(0), false},     // same bucket may hold equal values
		{MStar(), MConst(5), false},   // * overlaps everything
		{MAbs(1), MStar(), false},
	}
	for _, c := range cases {
		got := ne.Definitely([]ModeArg{c.a}, []ModeArg{c.b}, phi)
		if got != c.want {
			t.Errorf("NE.Definitely(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCondDefinitelyEQ(t *testing.T) {
	phi := NewFixedPhi(2, 0, nil)
	eq := ArgsEQ(0, 0)
	if !eq.Definitely([]ModeArg{MConst(3)}, []ModeArg{MConst(3)}, phi) {
		t.Error("equal constants must be definitely equal")
	}
	if eq.Definitely([]ModeArg{MAbs(0)}, []ModeArg{MAbs(0)}, phi) {
		t.Error("same abstract bucket must NOT be definitely equal")
	}
	if eq.Definitely([]ModeArg{MStar()}, []ModeArg{MStar()}, phi) {
		t.Error("* must not be definitely equal to anything")
	}
}

func TestCondDefinitelyCompound(t *testing.T) {
	phi := NewFixedPhi(4, 0, nil)
	and := AndCond(ArgsNE(0, 0), Always)
	if !and.Definitely([]ModeArg{MAbs(1)}, []ModeArg{MAbs(2)}, phi) {
		t.Error("AND with distinct buckets should be definite")
	}
	if and.Definitely([]ModeArg{MAbs(1)}, []ModeArg{MAbs(1)}, phi) {
		t.Error("AND with same bucket must be indefinite")
	}
	or := OrCond(Never, ArgsNE(0, 0))
	if !or.Definitely([]ModeArg{MAbs(1)}, []ModeArg{MAbs(3)}, phi) {
		t.Error("OR should be definite when a disjunct is")
	}
}

// TestCondSoundness checks, over a small concrete domain, that whenever a
// condition is Definitely true on mode arguments, it Holds for every pair
// of concrete values those arguments represent.
func TestCondSoundness(t *testing.T) {
	phi := NewPhi(3)
	domain := []Value{0, 1, 2, 3, 4, 5, 6, 7}
	margs := []ModeArg{MStar(), MAbs(0), MAbs(1), MAbs(2), MConst(3), MConst(4)}
	conds := []Cond{ArgsNE(0, 0), ArgsEQ(0, 0), AndCond(ArgsNE(0, 0)), OrCond(ArgsEQ(0, 0), ArgsNE(0, 0))}
	represents := func(a ModeArg, v Value) bool { return a.coversValue(v, phi) }
	for _, c := range conds {
		for _, ma := range margs {
			for _, mb := range margs {
				if !c.Definitely([]ModeArg{ma}, []ModeArg{mb}, phi) {
					continue
				}
				for _, va := range domain {
					if !represents(ma, va) {
						continue
					}
					for _, vb := range domain {
						if !represents(mb, vb) {
							continue
						}
						if !c.Holds([]Value{va}, []Value{vb}) {
							t.Fatalf("%s Definitely(%s,%s) but fails on (%v,%v)", c, ma, mb, va, vb)
						}
					}
				}
			}
		}
	}
}
