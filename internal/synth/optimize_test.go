package synth_test

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/papersec"
	"repro/internal/synth"
)

// secOf builds a one-section program over the standard specs.
func secOf(body ir.Block, vars ...ir.Param) *ir.Atomic {
	return &ir.Atomic{Name: "t", Vars: vars, Body: body}
}

var (
	pMap  = ir.Param{Name: "m", Type: "Map", IsADT: true, NonNull: true}
	pMap2 = ir.Param{Name: "m2", Type: "Map", IsADT: true, NonNull: true}
	pSet  = ir.Param{Name: "s", Type: "Set", IsADT: true}
	pKey  = ir.Param{Name: "k", Type: "int"}
)

func mGet(assign string) *ir.Call {
	return &ir.Call{Recv: "m", Method: "get", Args: []ir.Expr{ir.VarRef{Name: "k"}}, Assign: assign}
}

// TestElisionBlockedByReassignment: when a locked variable is reassigned
// after its lock, LOCAL_SET elision condition (2) fails — the output
// keeps the LV form and the prologue/epilogue.
func TestElisionBlockedByReassignment(t *testing.T) {
	sec := secOf(ir.Block{
		mGet("s"),
		&ir.If{Cond: ir.NotNull{Var: "s"}, Then: ir.Block{
			&ir.Call{Recv: "s", Method: "add", Args: []ir.Expr{ir.VarRef{Name: "k"}}},
		}},
		// s reassigned AFTER its lock site — the locked object would be
		// unreachable for the trailing unlock.
		&ir.Assign{Lhs: "s", Rhs: ir.Opaque{Text: "null"}},
		&ir.Call{Recv: "m", Method: "remove", Args: []ir.Expr{ir.VarRef{Name: "k"}}},
	}, pMap, pSet, pKey)
	res := synthesizeAt(t, paperProgram(sec), synth.StageNullChecks)
	out := ir.Print(res.Sections[0])
	if !strings.Contains(out, "LOCAL_SET.init()") {
		t.Errorf("LOCAL_SET must be kept when elision conditions fail:\n%s", out)
	}
	if !strings.Contains(out, "LV(s)") {
		t.Errorf("s's lock must stay in LV form:\n%s", out)
	}
	// m is still eligible: it is never reassigned and locked once.
	if !strings.Contains(out, "m.lock(+)") {
		t.Errorf("m should still be elided:\n%s", out)
	}
}

// TestElisionBlockedByLoop: a lock site inside a loop reaches itself, so
// condition (1) (no path with two locking operations of one class)
// fails and LOCAL_SET stays.
func TestElisionBlockedByLoop(t *testing.T) {
	sec := secOf(ir.Block{
		&ir.While{
			Cond: ir.OpaqueCond{Text: "k>0", Reads: []string{"k"}},
			Body: ir.Block{
				mGet("s"),
				&ir.If{Cond: ir.NotNull{Var: "s"}, Then: ir.Block{
					&ir.Call{Recv: "s", Method: "size", Assign: "k"},
				}},
			},
		},
	}, pMap, pSet, pKey)
	res := synthesizeAt(t, paperProgram(sec), synth.StageElideLocalSet)
	out := ir.Print(res.Sections[0])
	// The Set class self-cycles (s reassigned in the loop), so it is
	// wrapped; the wrapper pointer p1 is locked inside the loop and its
	// lock site reaches itself — condition (1) fails for it.
	if len(res.Wrappers) != 1 {
		t.Fatalf("expected the Set class to be wrapped; got %d wrappers", len(res.Wrappers))
	}
	if !strings.Contains(out, "LOCAL_SET.init()") {
		t.Errorf("loop-locked section must keep LOCAL_SET:\n%s", out)
	}
}

// TestEarlyReleaseNeedsWorkAfter: the unlock only moves earlier when an
// ADT operation remains after the new point; a section whose last
// action is the unlocked variable's own call keeps everything at the
// end (like map and set in Fig 28).
func TestEarlyReleaseNeedsWorkAfter(t *testing.T) {
	sec := secOf(ir.Block{
		mGet("v"),
	}, pMap, ir.Param{Name: "v", Type: "val"}, pKey)
	res := synthesizeAt(t, paperProgram(sec), synth.StageEarlyRelease)
	out := ir.Print(res.Sections[0])
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := strings.TrimSpace(lines[len(lines)-2]) // line before "}"
	if last != "if(m!=null) m.unlockAll();" && last != "m.unlockAll();" {
		t.Errorf("unlock should stay at the end:\n%s", out)
	}
}

// TestEarlyReleaseAcrossInstances: with two independent maps used in
// sequence, the first map's unlock moves to just after its last use.
func TestEarlyReleaseAcrossInstances(t *testing.T) {
	p := paperProgram(secOf(ir.Block{
		mGet("a"),
		&ir.Call{Recv: "m2", Method: "put", Args: []ir.Expr{ir.VarRef{Name: "k"}, ir.VarRef{Name: "a"}}},
	}, pMap, pMap2, pKey, ir.Param{Name: "a", Type: "val"}))
	// Distinct classes for the two maps (independent instances).
	p.ClassOf = func(sec *ir.Atomic, v string) string {
		if v == "m2" {
			return "Map$2"
		}
		return sec.ADTType(v)
	}
	res, err := synth.Synthesize(p, synth.Options{StopAfter: synth.StageEarlyRelease})
	if err != nil {
		t.Fatal(err)
	}
	out := ir.Print(res.Sections[0])
	// m's unlock must appear before m2.put — but m2's lock also stands
	// before m2.put, and no locking may follow an unlock (two-phase), so
	// the earliest legal point is after m2's lock.
	iUnlockM := strings.Index(out, "m.unlockAll()")
	iPut := strings.Index(out, "m2.put")
	if iUnlockM == -1 || iPut == -1 {
		t.Fatalf("missing statements:\n%s", out)
	}
	if iUnlockM > iPut {
		t.Errorf("m should be released before m2.put:\n%s", out)
	}
}

// TestNullCheckKeptWhenUnknown: a variable whose value comes from a map
// get (may be null) keeps its guard when no dominating null test pins
// it.
func TestNullCheckKeptWhenUnknown(t *testing.T) {
	sec := secOf(ir.Block{
		mGet("s"),
		// No null check: s.add would crash at runtime on nil, but the
		// synthesized guard must stay conservative.
		&ir.Call{Recv: "s", Method: "add", Args: []ir.Expr{ir.VarRef{Name: "k"}}},
	}, pMap, pSet, pKey)
	res := synthesizeAt(t, paperProgram(sec), synth.StageNullChecks)
	out := ir.Print(res.Sections[0])
	if !strings.Contains(out, "if(s!=null) s.lock(+)") {
		t.Errorf("s's guard must be kept (value may be null):\n%s", out)
	}
	if strings.Contains(out, "if(m!=null)") {
		t.Errorf("m is a non-null global; its guard must go:\n%s", out)
	}
}

// TestRedundantLVRule2: an LV whose variable has no future ADT use is
// removed. Construct it via a call that is only reachable on one branch
// while the insertion's LS is computed before branching... the simplest
// observable case: after full optimization no LV remains for a variable
// never used as a receiver.
func TestNoLockForUnusedADT(t *testing.T) {
	sec := secOf(ir.Block{
		mGet("v"),
	}, pMap, pSet, pKey, ir.Param{Name: "v", Type: "val"})
	res := synthesizeAt(t, paperProgram(sec), synth.StageRefine)
	out := ir.Print(res.Sections[0])
	if strings.Contains(out, "s.lock") || strings.Contains(out, "LV(s") {
		t.Errorf("unused ADT variable s must not be locked:\n%s", out)
	}
}

// TestFig4StagePipeline: each stage of the pipeline is runnable on the
// two-Set section and output stays protocol-correct (smoke across
// stages).
func TestFig4StagePipeline(t *testing.T) {
	for stage := synth.StageInsert; stage <= synth.StageRefine; stage++ {
		res := synthesizeAt(t, paperProgram(papersec.Fig4()), stage)
		out := ir.Print(res.Sections[0])
		if !strings.Contains(out, "x.size") || !strings.Contains(out, "y.add") {
			t.Errorf("stage %d lost statements:\n%s", stage, out)
		}
	}
}
